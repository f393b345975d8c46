// Export a simulation run's traces to CSV — the plotting interface behind
// the figure benches.
//
//   $ ./trace_export [output_dir]      (default: current directory)
//
// Runs a short AsyncFL training, then writes loss_curve.csv,
// active_clients.csv, participations.csv, and summary.csv, ready for any
// plotting tool.

#include <cstdio>
#include <fstream>
#include <string>

#include "sim/fl_simulator.hpp"
#include "sim/trace_export.hpp"

namespace {

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  out << contents;
  std::printf("  wrote %-22s (%zu bytes)\n", path.c_str(), contents.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace papaya;

  const std::string dir = argc > 1 ? std::string(argv[1]) + "/" : "./";

  sim::SimulationConfig cfg;
  cfg.task.name = "next-word-lm";
  cfg.task.mode = fl::TrainingMode::kAsync;
  cfg.task.concurrency = 32;
  cfg.task.aggregation_goal = 8;
  cfg.population.num_devices = 300;
  cfg.corpus.vocab_size = 64;
  cfg.model.vocab_size = 64;
  cfg.model.embed_dim = 10;
  cfg.model.hidden_dim = 16;
  cfg.server_opt.lr = 0.05f;
  cfg.max_server_steps = 60;
  cfg.eval_every_steps = 5;
  cfg.record_utilization = true;
  cfg.seed = 9;

  std::printf("running AsyncFL (concurrency %zu, K %zu) ...\n",
              cfg.task.concurrency, cfg.task.aggregation_goal);
  sim::FlSimulator simulator(cfg);
  const sim::SimulationResult result = simulator.run();
  std::printf("done: %llu server steps, final loss %.4f\n\n",
              static_cast<unsigned long long>(result.server_steps),
              result.final_eval_loss);

  const sim::SimulationTraces traces = sim::export_traces(result);
  write_file(dir + "loss_curve.csv", sim::to_csv(traces.loss_curve));
  write_file(dir + "active_clients.csv", sim::to_csv(traces.active_clients));
  write_file(dir + "participations.csv", sim::to_csv(traces.participations));
  write_file(dir + "summary.csv", sim::to_csv(traces.summary));

  std::printf(
      "\nplot loss_curve.csv for the Fig. 12-style training curve and\n"
      "active_clients.csv for the Fig. 7 utilization series.\n");
  return 0;
}
