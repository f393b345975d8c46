// Quickstart: train a next-word-prediction model with asynchronous federated
// learning (FedBuff) over a simulated heterogeneous device fleet.
//
//   $ ./quickstart
//
// This walks the public API end to end: configure a task, a device
// population, and a model; run the simulator; inspect the loss curve and the
// system counters.

#include <cstdio>

#include "sim/fl_simulator.hpp"

int main() {
  using namespace papaya;

  sim::SimulationConfig cfg;

  // The FL task: asynchronous (FedBuff) with concurrency 64 and an
  // aggregation goal of 10 client updates per server step (the paper
  // recommends K at 10-30% of concurrency).
  cfg.task.name = "next-word-lm";
  cfg.task.mode = fl::TrainingMode::kAsync;
  cfg.task.concurrency = 64;
  cfg.task.aggregation_goal = 10;
  cfg.task.max_staleness = 50;
  cfg.task.client_timeout_s = 240.0;

  // A fleet of 600 simulated devices with log-normal execution times and
  // example counts correlated with slowness (Sec. 2 / Sec. 7.4 shape).
  cfg.population.num_devices = 600;
  cfg.population.seed = 42;

  // Model + data: a small MLP language model over a 64-token vocabulary of
  // synthetic non-IID client text.
  cfg.corpus.vocab_size = 64;
  cfg.model.vocab_size = 64;
  cfg.model.embed_dim = 12;
  cfg.model.hidden_dim = 24;
  cfg.model.context = 2;

  // SGD on the client, FedAdam on the server (Sec. 7.1).
  cfg.trainer.learning_rate = 0.3f;
  cfg.trainer.batch_size = 32;
  cfg.server_opt.lr = 0.05f;

  cfg.max_server_steps = 120;
  cfg.eval_every_steps = 10;
  cfg.seed = 7;

  std::printf("training %s: concurrency=%zu K=%zu devices=%zu\n",
              cfg.task.name.c_str(), cfg.task.concurrency,
              cfg.task.aggregation_goal, cfg.population.num_devices);

  sim::FlSimulator simulator(cfg);
  const sim::SimulationResult result = simulator.run();

  std::printf("\n%-12s %-12s %-12s\n", "sim time (s)", "eval loss",
              "perplexity");
  for (std::size_t i = 0; i < result.loss_curve.size(); ++i) {
    std::printf("%-12.0f %-12.4f %-12.2f\n", result.loss_curve.times[i],
                result.loss_curve.values[i],
                std::exp(result.loss_curve.values[i]));
  }

  std::printf("\nserver steps:        %llu\n",
              static_cast<unsigned long long>(result.server_steps));
  std::printf("client updates:      %llu received, %llu applied\n",
              static_cast<unsigned long long>(result.task_stats.updates_received),
              static_cast<unsigned long long>(result.task_stats.updates_applied));
  std::printf("participations:      %llu started, %llu dropped/aborted\n",
              static_cast<unsigned long long>(result.participations_started),
              static_cast<unsigned long long>(result.task_stats.clients_failed +
                                              result.task_stats.clients_aborted));
  std::printf("final eval loss:     %.4f (perplexity %.2f)\n",
              result.final_eval_loss, std::exp(result.final_eval_loss));
  return 0;
}
