#pragma once
// Per-layer span accounting for the traced benchmark binary.
//
// trace_wraps.cpp interposes on the layers' public functions at link time
// (GNU ld --wrap) and opens a Scope around each forwarded call.  A Scope
// keeps its frame on a thread-local stack, so a span's self time is its
// duration minus the time of the spans nested inside it.  Every call is
// timed: sampling one call in N aliases with periodic work (the calendar
// queue's power-of-two resizes) and misestimates the layer.
//
// The clock is the TSC where there is one, converted to seconds by
// calibrate() against steady_clock over the measured interval.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#else
#include <chrono>
#endif

namespace papaya::benchmark::trace {

/// Layer spans.  The order matches kSpanNames.
enum class Span : std::uint8_t {
  kMlTrain,
  kMlServerOpt,
  kFlSerialize,
  kFlChunk,
  kFlAssemble,
  kFlReport,
  kFlFoldEnqueue,
  kFlFoldReduce,
  kFlControl,
  kSecaggPrepare,
  kSecaggReport,
  kSecaggTsaBatch,
  kSecaggFinalize,
  kCryptoPowmod,
  kCryptoKeystream,
  kCryptoAead,
  kSimRun,
  kSimSchedule,
  kSimProfile,
  kCount,
};
inline constexpr std::size_t kNumSpans = static_cast<std::size_t>(Span::kCount);
inline constexpr std::array<const char*, kNumSpans> kSpanNames = {
    "ml.train",        "ml.server_opt",    "fl.serialize",
    "fl.chunk",        "fl.assemble",      "fl.report",
    "fl.fold.enqueue", "fl.fold.reduce",   "fl.control",
    "secagg.prepare",  "secagg.report",    "secagg.tsa_batch",
    "secagg.finalize", "crypto.powmod",    "crypto.keystream",
    "crypto.aead",     "sim.run",          "sim.schedule",
    "sim.profile",
};

/// Plain counts taken at the same boundaries.
enum class Counter : std::uint8_t {
  kMlFlops,            ///< 2 * rows * cols per dense kernel call
  kPickLocked,         ///< decide_strategy results
  kPickMorsel,
  kPickStriped,
  kReportAccepted,     ///< client_report outcomes == kAccepted
  kAssembleAccepts,    ///< ChunkAssembler::accept calls
  kAssembleRejected,   ///< ... returning kCorrupt or kInconsistent
  kSecaggAccepted,     ///< client_report_secure outcomes == kAccepted
  kCount,
};
inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);

inline std::uint64_t now_ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

namespace detail {

struct Frame {
  std::uint64_t start = 0;
  std::uint64_t children = 0;  ///< ticks covered by nested spans
};
inline constexpr int kMaxDepth = 64;

inline std::atomic<bool> enabled{false};
inline std::array<std::atomic<std::uint64_t>, kNumSpans> calls{};
inline std::array<std::atomic<std::uint64_t>, kNumSpans> self_ticks{};
inline std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
inline thread_local std::array<Frame, kMaxDepth> stack{};
inline thread_local int depth = 0;

}  // namespace detail

/// Turn recording on or off.  Only flipped between workload passes, when no
/// Scope is open on any thread.
inline void set_enabled(bool on) {
  detail::enabled.store(on, std::memory_order_relaxed);
}
inline bool enabled() {
  return detail::enabled.load(std::memory_order_relaxed);
}

inline void count(Counter c, std::uint64_t n = 1) {
  if (enabled()) {
    detail::counters[static_cast<std::size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
  }
}

class Scope {
 public:
  explicit Scope(Span span)
      : span_(span), on_(enabled() && detail::depth < detail::kMaxDepth) {
    if (on_) detail::stack[detail::depth++] = {now_ticks(), 0};
  }
  ~Scope() {
    if (!on_) return;
    const std::uint64_t end = now_ticks();
    const detail::Frame frame = detail::stack[--detail::depth];
    const std::uint64_t total = end - frame.start;
    if (detail::depth > 0) detail::stack[detail::depth - 1].children += total;
    const auto i = static_cast<std::size_t>(span_);
    detail::self_ticks[i].fetch_add(total - frame.children,
                                    std::memory_order_relaxed);
    detail::calls[i].fetch_add(1, std::memory_order_relaxed);
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Span span_;
  bool on_;
};

struct Totals {
  std::array<std::uint64_t, kNumSpans> calls{};
  std::array<std::uint64_t, kNumSpans> self_ticks{};
  std::array<std::uint64_t, kNumCounters> counters{};
};

Totals& operator+=(Totals& a, const Totals& b);
Totals operator-(Totals a, const Totals& b);

/// Current totals (all recording since the process started).
Totals totals();

/// TSC ticks per second, measured against steady_clock between the first
/// call and this one.  Call once early (to anchor) and again at the end.
double calibrate();

}  // namespace papaya::benchmark::trace
