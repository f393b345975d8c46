// Figure 13 reproduction: hours to reach a target loss for the four FL
// configurations of Fig. 12.
//
// Paper result: SyncFL w/o over-selection ~235 h, SyncFL w/ over-selection
// ~80 h, AsyncFL K=1000 ~40 h, AsyncFL K=100 ~18 h (i.e. AsyncFL K=100 is
// ~4.3x faster than the best SyncFL; about half of that from smaller K and
// half from avoiding sampling bias).  Scaled: concurrency 130, K in
// {13, 100}, goal 100 for SyncFL.

#include <cstdio>
#include <vector>

#include "common.hpp"

namespace {

using namespace papaya;
using namespace papaya::bench;

double run_to_target(sim::SimulationConfig cfg) {
  cfg.target_loss = kTargetLoss;
  cfg.max_sim_time_s = 4.0e6;
  cfg.record_participations = false;
  sim::FlSimulator simulator(cfg);
  const sim::SimulationResult result = simulator.run();
  return result.reached_target ? sim_hours(result.time_to_target_s) : -1.0;
}

void print_bar(const char* name, double hours, double max_hours) {
  const int width = static_cast<int>(hours / max_hours * 46.0);
  std::printf("%-16s %7.2f h |%s\n", name, hours,
              std::string(static_cast<std::size_t>(width), '#').c_str());
}

}  // namespace

int main() {
  print_header("Figure 13: hours to target loss, four FL configurations");

  std::vector<std::pair<const char*, double>> rows;
  {
    sim::SimulationConfig cfg = sync_config(100, 0.0);
    rows.emplace_back("SyncFL w/o OS", run_to_target(cfg));
  }
  {
    sim::SimulationConfig cfg = sync_config(100, kOverSelection);
    rows.emplace_back("SyncFL w/ OS", run_to_target(cfg));
  }
  {
    sim::SimulationConfig cfg = async_config(130, 100);
    cfg.eval_every_steps = 1;
    rows.emplace_back("AsyncFL K=100", run_to_target(cfg));
  }
  {
    sim::SimulationConfig cfg = async_config(130, 13);
    rows.emplace_back("AsyncFL K=13", run_to_target(cfg));
  }

  double max_hours = 0.0;
  for (const auto& [_, h] : rows) max_hours = std::max(max_hours, h);
  for (const auto& [name, hours] : rows) {
    if (hours < 0.0) {
      std::printf("%-16s target not reached\n", name);
    } else {
      print_bar(name, hours, max_hours);
    }
  }
  const double best_sync = rows[1].second;
  const double async_k13 = rows[3].second;
  if (best_sync > 0.0 && async_k13 > 0.0) {
    std::printf("\nAsyncFL K=13 vs best SyncFL: %.1fx faster (paper: ~4.3x)\n",
                best_sync / async_k13);
  }

  // Closed-loop column: the pipelined per-stage completion times feed back
  // into the protocol schedule (TaskConfig::closed_loop_clients), so
  // aggregation-goal waits see the latency a pipelined fleet actually
  // delivers.  Comparable by construction: both rows draw identically per
  // device (per-entity RNG streams) and run a constrained uplink and 1 KiB
  // chunks so the upload is a real, overlappable fraction of a
  // participation; the only difference is whether the overlap is
  // observational (open loop) or drives the arrival events (closed loop).
  std::printf("\nClosed-loop column (AsyncFL K=13, uplink 0.005 Mbps, 1 KiB "
              "chunks):\n");
  auto constrained = [](bool closed_loop) {
    sim::SimulationConfig cfg = async_config(130, 13);
    cfg.task.pipelined_clients = true;
    cfg.task.closed_loop_clients = closed_loop;
    cfg.network.mean_upload_mbps = 0.005;
    cfg.upload_chunk_bytes = 1024;
    return run_to_target(cfg);
  };
  const double open_h = constrained(false);
  const double closed_h = constrained(true);
  std::printf("%-16s %7.2f h\n", "open loop", open_h);
  std::printf("%-16s %7.2f h\n", "closed loop", closed_h);
  if (open_h > 0.0 && closed_h > 0.0) {
    std::printf("closed-loop time-to-target delta: %+.1f%% (uploads overlap "
                "training, so goals fill earlier)\n",
                100.0 * (closed_h / open_h - 1.0));
  }
  return 0;
}
