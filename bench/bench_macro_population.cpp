// Macro-scale population sweep: fig8-class AsyncFL simulations at 10^4 to
// 10^7 virtual devices on one core, using the million-device recipe —
// lazy keyed device materialization (no per-device profile storage), the
// amortized-O(1) calendar event queue pumping 32-byte POD event records
// (zero allocations per event — tests/event_engine_test.cpp), dense
// per-entity stream counters, and streaming metrics (no raw record
// retention; staleness percentiles come from O(1) P² sketches).
//
// Reported per row: wall-clock seconds, discrete events pumped, events/sec
// (the queue-throughput headline), server steps, simulated end time,
// staleness percentiles of applied updates, and the row's own peak RSS
// (VmHWM, reset via /proc/self/clear_refs before the row starts, so each
// population size reports the memory *it* needed, not what a larger
// earlier row left as the process high-water).  After the sweep the
// process-lifetime peak is printed as a greppable
//   peak_rss_mb=<n>
// line — the acceptance artifact that the 10M-device sweep fits one box.
//
// PAPAYA_MACRO_QUICK=1 runs shortened 1M- and 10M-device rows (CI smoke).

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common.hpp"

namespace {

using namespace papaya;
using namespace papaya::bench;

struct Row {
  std::size_t devices;
  double checkin_interval_s;
  std::uint64_t server_steps;
};

sim::SimulationConfig macro_config(const Row& row) {
  sim::SimulationConfig cfg = base_config(7);
  cfg.task.mode = fl::TrainingMode::kAsync;
  cfg.task.concurrency = 104;
  cfg.task.aggregation_goal = 13;
  cfg.population.num_devices = row.devices;
  cfg.event_queue = sim::EventQueueBackend::kCalendar;
  cfg.mean_checkin_interval_s = row.checkin_interval_s;
  cfg.max_server_steps = row.server_steps;
  cfg.max_sim_time_s = 1.0e7;
  cfg.eval_every_steps = row.server_steps;  // evaluate once, at the end
  cfg.record_participations = false;
  cfg.metrics.max_timeseries_points = 256;
  return cfg;
}

double peak_rss_mb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Resets the kernel's VmHWM watermark so the next vm_hwm_mb() read covers
/// only the work since this call.  (getrusage's ru_maxrss is separate
/// accounting and is NOT reset — the final peak_rss_mb= artifact still
/// reports the true process-lifetime peak.)
void reset_peak_rss() {
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

/// Current VmHWM (peak RSS since the last reset) in MB; falls back to the
/// process-lifetime peak where /proc is unavailable.
double vm_hwm_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) / 1024.0;
  }
  return peak_rss_mb();
}

void run_row(const Row& row) {
  reset_peak_rss();
  sim::FlSimulator simulator(macro_config(row));
  const auto start = std::chrono::steady_clock::now();
  const auto result = simulator.run();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const auto& s = result.summary;
  std::printf(
      "row devices=%zu checkin_s=%.0f wall_s=%.2f events=%llu "
      "events_per_s=%.0f server_steps=%llu sim_end_s=%.0f "
      "participations=%llu stale_p50=%.0f stale_p95=%.0f stale_p99=%.0f "
      "peak_rss_mb=%.0f\n",
      row.devices, row.checkin_interval_s, wall_s,
      static_cast<unsigned long long>(result.events_processed),
      static_cast<double>(result.events_processed) / wall_s,
      static_cast<unsigned long long>(result.server_steps), result.end_time_s,
      static_cast<unsigned long long>(s.records),
      s.applied > 0 ? s.stale_p50.value() : 0.0,
      s.applied > 0 ? s.stale_p95.value() : 0.0,
      s.applied > 0 ? s.stale_p99.value() : 0.0, vm_hwm_mb());
  std::fflush(stdout);
}

}  // namespace

int main() {
  print_header(
      "Macro population sweep: AsyncFL (K=13, concurrency 104) at scale");
  std::printf(
      "(lazy keyed population + calendar event queue + dense stream "
      "counters + streaming metrics)\n\n");

  const bool quick = std::getenv("PAPAYA_MACRO_QUICK") != nullptr;
  std::vector<Row> rows;
  if (quick) {
    // CI smoke: prove the 1M- and 10M-device paths end to end, minimal
    // steps each.
    rows.push_back({1'000'000, 60.0, 5});
    rows.push_back({10'000'000, 60.0, 2});
  } else {
    // Device axis at a fixed check-in load, then an event-rate axis at 1M
    // (halving the mean check-in interval doubles offered events/sec), then
    // the ten-million-device headline row.
    rows.push_back({10'000, 60.0, 30});
    rows.push_back({100'000, 60.0, 30});
    rows.push_back({1'000'000, 120.0, 30});
    rows.push_back({1'000'000, 60.0, 30});
    rows.push_back({10'000'000, 60.0, 30});
  }
  for (const Row& row : rows) run_row(row);

  std::printf("\npeak_rss_mb=%.0f\n", peak_rss_mb());
  std::printf(
      "Expected shape: events/sec stays flat as the device count grows "
      "1000x\n"
      "(POD event pops are allocation-free and O(1) amortized, device state\n"
      "is O(bytes) per device); per-row peak RSS grows linearly in devices\n"
      "and stays far below what 10^7 eager DeviceProfile + heap-queue state\n"
      "would need.\n");
  return 0;
}
