// Figure 2 reproduction: the distribution of client execution times across
// the fleet (log-scale histogram) and the gap between the mean SyncFL round
// duration and the mean client execution time.
//
// Paper result: per-client training time spans more than two orders of
// magnitude, and with concurrency = aggregation goal = 1000 the mean round
// duration is 21x the mean client execution time (the straggler effect).

#include <cstdio>

#include "common.hpp"
#include "util/stats.hpp"

int main() {
  using namespace papaya;
  using namespace papaya::bench;

  print_header("Figure 2: client execution time distribution (log-scale x)");

  // A large sampled fleet (the paper samples millions; we sample 200k).
  sim::PopulationConfig pop_cfg = base_config().population;
  pop_cfg.num_devices = 200000;
  const sim::DevicePopulation population(pop_cfg);

  std::vector<double> times;
  times.reserve(population.size());
  util::LogHistogram hist(0.5, 5000.0, 24);
  for (std::size_t i = 0; i < population.size(); ++i) {
    const sim::DeviceProfile d = population.profile(i);
    times.push_back(d.mean_exec_time_s);
    hist.add(d.mean_exec_time_s);
  }
  std::printf("%s\n", hist.ascii(48).c_str());
  std::printf("exec time percentiles (s):  p1=%.1f  p50=%.1f  p99=%.1f  "
              "(p99/p1 = %.0fx)\n\n",
              util::percentile(times, 1.0), util::percentile(times, 50.0),
              util::percentile(times, 99.0),
              util::percentile(times, 99.0) / util::percentile(times, 1.0));

  // Straggler effect: SyncFL with concurrency == aggregation goal (no
  // over-selection), scaled from the paper's 1000 to 100.
  sim::SimulationConfig cfg = sync_config(/*goal=*/100, /*over_selection=*/0.0);
  cfg.max_server_steps = 12;
  cfg.max_sim_time_s = 1.0e6;
  sim::FlSimulator simulator(cfg);
  const sim::SimulationResult result = simulator.run();

  std::vector<double> exec_times;
  for (const auto& p : result.participations) {
    if (!p.dropped_out) exec_times.push_back(p.exec_time_s);
  }
  const double mean_round =
      result.end_time_s / static_cast<double>(result.server_steps);
  const double mean_exec = util::mean(exec_times);
  std::printf("SyncFL, concurrency = goal = %zu (no over-selection):\n",
              cfg.task.concurrency);
  std::printf("  mean client execution time: %8.1f s\n", mean_exec);
  std::printf("  mean round duration:        %8.1f s\n", mean_round);
  std::printf("  ratio (paper: ~21x at concurrency 1000): %.1fx\n",
              mean_round / mean_exec);

  // Pipelined client runtime (Sec. 6.1 stage overlap).  Under a
  // constrained uplink, the upload is a large fraction of a participation;
  // the pipelined runtime overlaps train ∥ serialize ∥ chunked upload so
  // per-client round latency approaches max(train, serialize + first
  // chunk) + the residual upload tail instead of the stage sum.  Chunk
  // size sweeps the overlap granularity — one chunk means no overlap.
  // Training dynamics are provably identical with the knob on or off
  // (equivalence suite in tests/sim_test.cpp), so the sequential column
  // can be read straight from the same run's stage-sum charge.
  std::printf("\nPipelined client runtime (uplink 0.02 Mbps, small stores):\n");
  sim::SimulationConfig pcfg = async_config(/*concurrency=*/30, /*goal=*/6);
  pcfg.max_server_steps = 25;
  pcfg.max_sim_time_s = 1.0e6;
  pcfg.network.mean_upload_mbps = 0.02;  // upload comparable to training
  pcfg.population.min_examples = 1;
  pcfg.population.max_examples = 8;
  pcfg.task.pipelined_clients = true;
  std::printf("%-14s %-8s %-16s %-16s %-10s %s\n", "chunk bytes", "chunks",
              "sequential (s)", "pipelined (s)", "delta", "closed-loop (s)");
  for (const std::size_t chunk_bytes : {16384UL, 4096UL, 1024UL}) {
    pcfg.upload_chunk_bytes = chunk_bytes;
    sim::FlSimulator pipelined(pcfg);
    const sim::SimulationResult pres = pipelined.run();
    std::vector<double> sequential_lat, pipelined_lat;
    std::uint32_t chunks = 0;
    for (const auto& p : pres.participations) {
      if (p.round_latency_s <= 0.0) continue;  // dropout/abort
      sequential_lat.push_back(p.round_latency_s);
      pipelined_lat.push_back(p.pipelined_latency_s);
      chunks = p.upload_chunks;
    }
    const double seq_mean = util::mean(sequential_lat);
    const double pipe_mean = util::mean(pipelined_lat);

    // Closed-loop column: the same task with the pipelined completion times
    // actually driving the protocol schedule.  Round latency *is* the
    // pipelined latency there — the clock is honest.
    sim::SimulationConfig ccfg = pcfg;
    ccfg.task.closed_loop_clients = true;
    sim::FlSimulator closed(ccfg);
    const sim::SimulationResult cres = closed.run();
    std::vector<double> closed_lat;
    for (const auto& p : cres.participations) {
      if (p.round_latency_s <= 0.0) continue;
      closed_lat.push_back(p.round_latency_s);
    }

    std::printf("%-14zu %-8u %-16.1f %-16.1f %+7.1f%%   %.1f\n", chunk_bytes,
                chunks, seq_mean, pipe_mean,
                100.0 * (pipe_mean / seq_mean - 1.0), util::mean(closed_lat));
  }
  std::printf("Expected shape: finer chunks overlap more of the upload with "
              "training.\nA single chunk cannot overlap at all — its delta is "
              "just the serialize\nstage, which the sequential charge treats "
              "as free.  The closed-loop\ncolumn reports round latency when "
              "the overlapped schedule drives the\nprotocol; a device's "
              "k-th participation draws the same values in\nevery column.\n");
  return 0;
}
