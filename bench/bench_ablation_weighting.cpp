// Ablation: the FedBuff update-weighting design choices (Sec. 3.1 /
// App. E.2) and the differential-privacy extension (Sec. 9 future work).
//
//  1. Staleness down-weighting w = 1/sqrt(1+s): without it, stale updates
//     drag the model toward outdated directions; convergence to the target
//     slows at high concurrency/K ratios.
//  2. Example-count weighting: without it, data-poor clients get equal say
//     and the effective batch the server sees is noisier.
//  3. Central DP (clip + Gaussian noise): quantifies the accuracy cost of
//     increasing noise multipliers at a fixed update budget.

#include <cstdio>

#include "common.hpp"

namespace {

using namespace papaya;
using namespace papaya::bench;

double time_to_target(sim::SimulationConfig cfg) {
  cfg.target_loss = kTargetLoss;
  cfg.max_sim_time_s = 2.0e6;
  // Hard cap so a non-converging ablation arm terminates quickly.
  cfg.max_applied_updates = 25000;
  cfg.record_participations = false;
  sim::FlSimulator simulator(cfg);
  const auto result = simulator.run();
  return result.reached_target ? sim_hours(result.time_to_target_s) : -1.0;
}

double loss_after_budget(sim::SimulationConfig cfg, std::uint64_t budget) {
  cfg.max_applied_updates = budget;
  cfg.max_sim_time_s = 2.0e6;
  cfg.record_participations = false;
  cfg.eval_every_steps = 50;
  sim::FlSimulator simulator(cfg);
  return simulator.run().final_eval_loss;
}

}  // namespace

int main() {
  print_header("Ablation: FedBuff weighting and the DP extension");

  // High-staleness regime: concurrency >> K so staleness matters.
  std::printf("\n[1] staleness down-weighting (concurrency 208, K 13):\n");
  for (const bool on : {true, false}) {
    sim::SimulationConfig cfg = async_config(208, 13);
    cfg.task.staleness_weighting = on;
    const double h = time_to_target(cfg);
    if (h < 0) {
      std::printf("  staleness weighting %-3s -> target not reached\n",
                  on ? "on" : "off");
    } else {
      std::printf("  staleness weighting %-3s -> time to target %.3f h\n",
                  on ? "on" : "off", h);
    }
  }

  std::printf("\n[2] example-count weighting (concurrency 104, K 13):\n");
  for (const bool on : {true, false}) {
    sim::SimulationConfig cfg = async_config(104, 13);
    cfg.task.example_weighting = on;
    const double h = time_to_target(cfg);
    if (h < 0) {
      std::printf("  example weighting %-3s -> target not reached\n",
                  on ? "on" : "off");
    } else {
      std::printf("  example weighting %-3s -> time to target %.3f h\n",
                  on ? "on" : "off", h);
    }
  }

  // Staleness *scheme* family (App. E.2 note: the paper's inverse-sqrt is
  // one member of the Xie et al. 2019 family).
  std::printf("\n[2b] staleness scheme (concurrency 208, K 13):\n");
  struct SchemeArm {
    fl::StalenessScheme scheme;
    fl::StalenessParams params;
    const char* label;
  };
  const SchemeArm arms[] = {
      {fl::StalenessScheme::kInverseSqrt, {}, "inverse-sqrt (paper)"},
      {fl::StalenessScheme::kConstant, {}, "constant"},
      {fl::StalenessScheme::kInversePoly, {.exponent = 1.0}, "poly a=1.0"},
      {fl::StalenessScheme::kHinge,
       {.hinge_cutoff = 4, .hinge_slope = 0.5},
       "hinge b=4"},
  };
  for (const SchemeArm& arm : arms) {
    sim::SimulationConfig cfg = async_config(208, 13);
    cfg.task.staleness_scheme = arm.scheme;
    cfg.task.staleness_params = arm.params;
    const double h = time_to_target(cfg);
    if (h < 0) {
      std::printf("  %-22s -> target not reached\n", arm.label);
    } else {
      std::printf("  %-22s -> time to target %.3f h\n", arm.label, h);
    }
  }

  std::printf("\n[3] central DP at a 3000-update budget (concurrency 104, "
              "K 13, clip 5.0):\n");
  for (const float noise : {0.0f, 0.01f, 0.05f, 0.2f}) {
    sim::SimulationConfig cfg = async_config(104, 13);
    cfg.task.dp.enabled = true;
    cfg.task.dp.clip_norm = 5.0f;
    cfg.task.dp.noise_multiplier = noise;
    const double loss = loss_after_budget(cfg, 3000);
    std::printf("  noise multiplier %.2f -> eval loss %.4f\n", noise, loss);
  }

  std::printf(
      "\nExpected: with staleness weighting off, training still reaches the\n"
      "target at high concurrency/K, but several times later (the FedBuff\n"
      "design choice this system depends on).  Example weighting is\n"
      "data-dependent: on this synthetic corpus every client's examples are\n"
      "equally informative, so it buys nothing here — its value in the paper\n"
      "comes from real keyboard data where volume tracks quality.  DP loss\n"
      "grows with the noise multiplier (privacy-utility trade-off).  Among\n"
      "the staleness schemes, every one that down-weights stale updates\n"
      "reaches the target several times sooner than constant weighting (no\n"
      "down-weighting) — the ordering the FedBuff analysis predicts.\n");
  return 0;
}
