#pragma once
// Shared experiment configuration for the figure/table reproduction benches.
//
// Scaling relative to the paper (see DESIGN.md and EXPERIMENTS.md): the
// paper's production runs use ~100M devices and concurrency 130-2600; this
// harness scales concurrency by ~1/10 (13-532), the device pool to a few
// thousand simulated devices, and the LSTM LM to a small MLP LM, so each
// configuration runs in seconds on one machine.  All comparisons are within
// the same simulated clock, so ratios/shapes are preserved.

#include <cstdio>
#include <string>

#include "sim/fl_simulator.hpp"

namespace papaya::bench {

/// The scaled stand-in for the paper's "target loss" (Figs. 3, 9, 10, 13).
inline constexpr double kTargetLoss = 3.35;

/// Paper-style over-selection factor (Bonawitz et al. 2019).
inline constexpr double kOverSelection = 0.30;

/// Baseline simulation config shared by all experiments.
inline sim::SimulationConfig base_config(std::uint64_t seed = 7) {
  sim::SimulationConfig cfg;
  cfg.task.name = "next-word-lm";
  cfg.task.client_timeout_s = 240.0;  // the paper's 4-minute timeout
  cfg.task.max_staleness = 100;

  cfg.population.seed = seed;
  cfg.corpus.vocab_size = 64;
  cfg.model.vocab_size = 64;
  cfg.model.embed_dim = 12;
  cfg.model.hidden_dim = 24;
  cfg.model.context = 2;

  cfg.trainer.learning_rate = 0.3f;
  cfg.trainer.batch_size = 32;
  cfg.server_opt.lr = 0.05f;

  cfg.eval_set_size = 150;
  cfg.seed = seed;
  return cfg;
}

/// AsyncFL (FedBuff) config: aggregation goal K independent of concurrency.
inline sim::SimulationConfig async_config(std::size_t concurrency,
                                          std::size_t aggregation_goal,
                                          std::uint64_t seed = 7) {
  sim::SimulationConfig cfg = base_config(seed);
  cfg.task.mode = fl::TrainingMode::kAsync;
  cfg.task.concurrency = concurrency;
  cfg.task.aggregation_goal = aggregation_goal;
  cfg.population.num_devices = std::max<std::size_t>(6 * concurrency, 600);
  cfg.eval_every_steps = 5;
  return cfg;
}

/// SyncFL config.  `over_selection` > 0 sets concurrency = goal * (1 + o).
inline sim::SimulationConfig sync_config(std::size_t aggregation_goal,
                                         double over_selection,
                                         std::uint64_t seed = 7) {
  sim::SimulationConfig cfg = base_config(seed);
  cfg.task.mode = fl::TrainingMode::kSync;
  cfg.task.aggregation_goal = aggregation_goal;
  cfg.task.concurrency =
      fl::TaskConfig::over_selected_cohort(aggregation_goal, over_selection);
  cfg.population.num_devices =
      std::max<std::size_t>(6 * cfg.task.concurrency, 600);
  cfg.eval_every_steps = 1;  // sync steps are rare; evaluate each one
  return cfg;
}

/// Overrides for the *scaling* experiments (Figs. 3 and 9).  The paper's
/// large-cohort effect — bigger cohorts reduce gradient variance, with
/// diminishing returns — only shows when per-client updates are noisy
/// relative to the signal.  At miniature scale that requires clients with
/// very little local data (1-6 sequences), fully non-IID topics, and larger
/// client/server steps; otherwise even tiny cohorts average away the noise
/// and SyncFL's curve is flat from the start.
inline void apply_scaling_noise(sim::SimulationConfig& cfg) {
  cfg.population.min_examples = 1;
  cfg.population.max_examples = 6;
  cfg.corpus.topics_per_client = 1;
  cfg.trainer.learning_rate = 0.6f;
  cfg.server_opt.lr = 0.12f;
}

/// Target loss used with apply_scaling_noise (the noisier task converges to
/// a different floor than the default config).
inline constexpr double kScalingTargetLoss = 3.30;

/// Convert simulated seconds to "hours" for paper-style reporting.
inline double sim_hours(double seconds) { return seconds / 3600.0; }

inline void print_header(const std::string& title) {
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", std::string(title.size(), '-').c_str());
}

}  // namespace papaya::bench
