// Figures 12 + 13 companion: training curves for the four configurations the
// paper uses to decompose AsyncFL's advantage (all at max concurrency 130,
// scaled from 1300):
//   AsyncFL K=13    - frequent steps + straggler-resilient + unbiased
//   AsyncFL K=100   - infrequent steps (removes the frequent-update edge)
//   SyncFL  w/  OS  - adds sampling bias (goal 100, 30% over-selection)
//   SyncFL  w/o OS  - adds straggler stalls (concurrency = goal = 100)
//
// Paper result: each property removed costs training speed; comparing curves
// at a fixed time shows ~half the speedup comes from frequent steps and the
// rest from avoiding sampling bias / stragglers.

#include <cstdio>
#include <vector>

#include "common.hpp"

namespace {

using namespace papaya;
using namespace papaya::bench;

struct Curve {
  const char* name;
  sim::TimeSeries series;
  double end_time;
};

Curve run(const char* name, sim::SimulationConfig cfg, double horizon) {
  cfg.max_sim_time_s = horizon;
  cfg.target_loss = 0.0;  // run the full horizon
  cfg.record_participations = false;
  sim::FlSimulator simulator(cfg);
  sim::SimulationResult result = simulator.run();
  return {name, std::move(result.loss_curve), result.end_time_s};
}

}  // namespace

int main() {
  print_header("Figure 12: training curves for four FL configurations");
  // Horizon covers the pre-convergence region the paper's figure shows; past
  // it AsyncFL K=13 sits at its (slightly noisier) staleness floor while
  // K=100 keeps descending, which is the Sec. 7.3 stability observation.
  const double horizon = 4200.0;  // sim seconds

  std::vector<Curve> curves;
  {
    sim::SimulationConfig cfg = async_config(130, 13);
    curves.push_back(run("AsyncFL K=13", cfg, horizon));
  }
  {
    sim::SimulationConfig cfg = async_config(130, 100);
    cfg.eval_every_steps = 1;
    curves.push_back(run("AsyncFL K=100", cfg, horizon));
  }
  {
    sim::SimulationConfig cfg = sync_config(100, kOverSelection);
    curves.push_back(run("SyncFL w/ OS", cfg, horizon));
  }
  {
    sim::SimulationConfig cfg = sync_config(100, 0.0);
    curves.push_back(run("SyncFL w/o OS", cfg, horizon));
  }

  std::printf("%-10s", "time (s)");
  for (const Curve& c : curves) std::printf(" %-14s", c.name);
  std::printf("\n");
  const int samples = 24;
  int compared = 0;
  std::vector<double> out_of_order;  // sample times where the order breaks
  for (int i = 1; i <= samples; ++i) {
    const double t = horizon * i / samples;
    std::printf("%-10.0f", t);
    bool complete = true;
    bool ordered = true;
    double previous = -1.0;
    for (const Curve& c : curves) {
      const double v = c.series.value_at(t);
      if (std::isnan(v)) {
        std::printf(" %-14s", "-");
        complete = false;
      } else {
        std::printf(" %-14.4f", v);
        ordered = ordered && v > previous;
        previous = v;
      }
    }
    std::printf("\n");
    if (!complete) continue;
    ++compared;
    if (!ordered) out_of_order.push_back(t);
  }

  std::printf(
      "\nExpected ordering at any fixed time (paper): AsyncFL K=13 lowest "
      "loss,\nthen AsyncFL K=100 (less frequent steps), then SyncFL w/ OS "
      "(adds bias),\nthen SyncFL w/o OS (stragglers stall rounds).  Here it "
      "holds at %d of the\n%d samples where every curve has a point",
      compared - static_cast<int>(out_of_order.size()), compared);
  if (out_of_order.empty()) {
    std::printf(".\n");
  } else {
    std::printf("; it breaks at t =");
    for (const double t : out_of_order) std::printf(" %.0f", t);
    std::printf(" s.\n");
  }
  return 0;
}
