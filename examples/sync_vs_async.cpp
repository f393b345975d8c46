// Example: head-to-head SyncFL vs AsyncFL on the same device population.
//
// Demonstrates the paper's headline comparison at laptop scale: both modes
// train the same model on the same fleet; AsyncFL reaches the target loss
// faster, with steadier utilization and fewer wasted participations.
//
//   $ ./sync_vs_async

#include <cstdio>

#include "sim/fl_simulator.hpp"
#include "util/stats.hpp"

namespace {

using namespace papaya;

sim::SimulationConfig common_config() {
  sim::SimulationConfig cfg;
  cfg.task.name = "lm";
  cfg.task.client_timeout_s = 240.0;
  cfg.population.num_devices = 800;
  cfg.population.seed = 3;
  cfg.corpus.vocab_size = 64;
  cfg.model.vocab_size = 64;
  cfg.model.embed_dim = 12;
  cfg.model.hidden_dim = 24;
  cfg.model.context = 2;
  cfg.server_opt.lr = 0.05f;
  cfg.target_loss = 3.4;
  cfg.max_sim_time_s = 1.0e6;
  cfg.seed = 3;
  cfg.record_utilization = true;
  cfg.record_participations = false;
  return cfg;
}

void report(const char* name, const sim::SimulationResult& result,
            std::size_t concurrency) {
  std::vector<double> active;
  for (std::size_t i = 0; i < result.active_clients.size(); ++i) {
    if (result.active_clients.times[i] > result.end_time_s / 4.0) {
      active.push_back(result.active_clients.values[i]);
    }
  }
  std::printf("%-10s time-to-target %8.0f s   server steps %5llu   "
              "comm trips %6llu   utilization %5.1f%%\n",
              name, result.time_to_target_s,
              static_cast<unsigned long long>(result.server_steps),
              static_cast<unsigned long long>(result.comm_trips),
              active.empty() ? 0.0
                             : 100.0 * util::mean(active) /
                                   static_cast<double>(concurrency));
}

}  // namespace

int main() {
  const std::size_t concurrency = 104;

  // SyncFL: 30% over-selection around a goal of 80.
  sim::SimulationConfig sync_cfg = common_config();
  sync_cfg.task.mode = fl::TrainingMode::kSync;
  sync_cfg.task.aggregation_goal = 80;
  sync_cfg.task.concurrency = concurrency;
  sync_cfg.eval_every_steps = 1;
  sim::FlSimulator sync_sim(sync_cfg);
  const sim::SimulationResult sync_result = sync_sim.run();

  // AsyncFL: same concurrency, aggregation goal 13 (~12% of concurrency).
  sim::SimulationConfig async_cfg = common_config();
  async_cfg.task.mode = fl::TrainingMode::kAsync;
  async_cfg.task.aggregation_goal = 13;
  async_cfg.task.concurrency = concurrency;
  async_cfg.task.max_staleness = 100;
  async_cfg.eval_every_steps = 5;
  sim::FlSimulator async_sim(async_cfg);
  const sim::SimulationResult async_result = async_sim.run();

  std::printf("target loss %.2f at concurrency %zu over %zu devices\n\n",
              sync_cfg.target_loss, concurrency,
              sync_cfg.population.num_devices);
  report("SyncFL", sync_result, concurrency);
  report("AsyncFL", async_result, concurrency);

  if (sync_result.reached_target && async_result.reached_target) {
    std::printf("\nAsyncFL speedup: %.1fx   communication efficiency: %.1fx\n",
                sync_result.time_to_target_s / async_result.time_to_target_s,
                static_cast<double>(sync_result.comm_trips) /
                    static_cast<double>(async_result.comm_trips));
  }
  return 0;
}
