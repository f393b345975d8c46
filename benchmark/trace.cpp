#include "trace.hpp"

#include <chrono>

namespace papaya::benchmark::trace {

Totals& operator+=(Totals& a, const Totals& b) {
  for (std::size_t i = 0; i < kNumSpans; ++i) {
    a.calls[i] += b.calls[i];
    a.self_ticks[i] += b.self_ticks[i];
  }
  for (std::size_t i = 0; i < kNumCounters; ++i) a.counters[i] += b.counters[i];
  return a;
}

Totals operator-(Totals a, const Totals& b) {
  for (std::size_t i = 0; i < kNumSpans; ++i) {
    a.calls[i] -= b.calls[i];
    a.self_ticks[i] -= b.self_ticks[i];
  }
  for (std::size_t i = 0; i < kNumCounters; ++i) a.counters[i] -= b.counters[i];
  return a;
}

Totals totals() {
  Totals t;
  for (std::size_t i = 0; i < kNumSpans; ++i) {
    t.calls[i] = detail::calls[i].load(std::memory_order_relaxed);
    t.self_ticks[i] = detail::self_ticks[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    t.counters[i] = detail::counters[i].load(std::memory_order_relaxed);
  }
  return t;
}

double calibrate() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point anchor_time = Clock::now();
  static const std::uint64_t anchor_ticks = now_ticks();
  const double seconds =
      std::chrono::duration<double>(Clock::now() - anchor_time).count();
  const std::uint64_t ticks = now_ticks() - anchor_ticks;
  return seconds > 0.0 ? static_cast<double>(ticks) / seconds : 0.0;
}

}  // namespace papaya::benchmark::trace
