// Example: federated training with central differential privacy — the
// extension the paper's conclusion names as future work.
//
// Each client update is L2-clipped inside the aggregation pipeline, and the
// server adds Gaussian noise (stddev = noise_multiplier * clip / K) to every
// aggregated mean delta before the FedAdam step.  Sweeping the noise
// multiplier shows the privacy-utility trade-off.
//
//   $ ./dp_training

#include <cstdio>

#include "sim/fl_simulator.hpp"

int main() {
  using namespace papaya;

  std::printf("central DP on AsyncFL: clip 5.0, 1500-update budget\n\n");
  std::printf("%-18s %-12s %-12s\n", "noise multiplier", "eval loss",
              "perplexity");

  for (const float noise : {0.0f, 0.02f, 0.05f, 0.1f, 0.3f}) {
    sim::SimulationConfig cfg;
    cfg.task.name = "dp-lm";
    cfg.task.mode = fl::TrainingMode::kAsync;
    cfg.task.concurrency = 64;
    cfg.task.aggregation_goal = 10;
    cfg.task.dp.enabled = true;
    cfg.task.dp.clip_norm = 5.0f;
    cfg.task.dp.noise_multiplier = noise;

    cfg.population.num_devices = 500;
    cfg.population.seed = 4;
    cfg.corpus.vocab_size = 64;
    cfg.model.vocab_size = 64;
    cfg.model.embed_dim = 12;
    cfg.model.hidden_dim = 24;
    cfg.model.context = 2;
    cfg.server_opt.lr = 0.05f;

    cfg.max_applied_updates = 1500;
    cfg.max_sim_time_s = 1.0e6;
    cfg.eval_every_steps = 50;
    cfg.seed = 4;
    cfg.record_participations = false;

    sim::FlSimulator simulator(cfg);
    const sim::SimulationResult result = simulator.run();
    std::printf("%-18.2f %-12.4f %-12.2f\n", noise, result.final_eval_loss,
                std::exp(result.final_eval_loss));
  }

  std::printf(
      "\nHigher noise multipliers buy stronger differential-privacy\n"
      "guarantees at the cost of model quality; clipping alone (0.00 row)\n"
      "is nearly free.  Combine with SecAgg (task.secagg_enabled) so the\n"
      "server never sees an individual update in the clear at all.\n");
  return 0;
}
