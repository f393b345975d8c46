// Tests for the simulation substrate: event-queue ordering, population
// distribution properties (the Fig. 2 / Sec. 7.4 requirements), network
// model, and metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>

#include "sim/event_queue.hpp"
#include "sim/fl_simulator.hpp"
#include "sim/metrics.hpp"
#include "sim/network.hpp"
#include "sim/population.hpp"
#include "util/stats.hpp"

namespace papaya::sim {
namespace {

// ------------------------------------------------------------ Event queue --

// A queue whose dispatcher records every pop: the label each event carries
// in `entity`, and the time it ran.  `react`, when set, runs after the
// record and may schedule more events.
struct Recorder {
  std::vector<int> labels;
  std::vector<double> times;
  std::function<void(Recorder&, int label, double now)> react;
  EventQueue queue;

  Recorder() : queue(&Recorder::dispatch, this) {}
  explicit Recorder(EventQueueBackend backend)
      : queue(&Recorder::dispatch, this, backend) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  void at(double when, int label, std::uint64_t tie_key = 0) {
    queue.schedule_event_at(when, tie_key, EventKind{1},
                            static_cast<std::uint32_t>(label), 0);
  }
  void in(double delay, int label, std::uint64_t tie_key = 0) {
    queue.schedule_event_in(delay, tie_key, EventKind{1},
                            static_cast<std::uint32_t>(label), 0);
  }
  void drain() {
    while (queue.step()) {
    }
  }

  static void dispatch(void* ctx, EventKind, std::uint32_t entity,
                       std::uint32_t, double now) {
    auto& r = *static_cast<Recorder*>(ctx);
    r.labels.push_back(static_cast<int>(entity));
    r.times.push_back(now);
    if (r.react) r.react(r, static_cast<int>(entity), now);
  }
};

TEST(EventQueue, RunsEventsInTimeOrder) {
  Recorder r;
  r.at(3.0, 3);
  r.at(1.0, 1);
  r.at(2.0, 2);
  r.drain();
  EXPECT_EQ(r.labels, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(r.queue.now(), 3.0);
}

TEST(EventQueue, SimultaneousEventsAreFifo) {
  Recorder r;
  for (int i = 0; i < 5; ++i) r.at(1.0, i);
  r.drain();
  EXPECT_EQ(r.labels, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  Recorder r;
  r.react = [](Recorder& rec, int, double) {
    if (rec.labels.size() < 10) rec.in(1.0, 0);
  };
  r.at(0.0, 0);
  r.drain();
  EXPECT_EQ(r.labels.size(), 10u);
  EXPECT_DOUBLE_EQ(r.queue.now(), 9.0);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  Recorder r;
  r.at(1.0, 0);
  r.at(100.0, 1);
  r.queue.run_until(10.0);
  EXPECT_EQ(r.labels.size(), 1u);
  EXPECT_DOUBLE_EQ(r.queue.now(), 10.0);
  EXPECT_EQ(r.queue.pending(), 1u);
}

TEST(EventQueue, RunUntilHonoursStopPredicate) {
  Recorder r;
  r.at(1.0, 1);
  r.at(2.0, 2);
  r.queue.run_until(10.0, [&r] { return !r.labels.empty(); });
  EXPECT_EQ(r.labels, (std::vector<int>{1}));
}

TEST(EventQueue, RunUntilRejectsNanAndNeverMovesTheClockToInfinity) {
  // A NaN deadline compares false against every event time, so it would
  // run nothing and return as if the deadline had passed.  A +inf deadline
  // is no deadline: once the queue empties the clock must stay at the last
  // event, or every later schedule call would throw.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto backend :
       {EventQueueBackend::kHeap, EventQueueBackend::kCalendar}) {
    Recorder r(backend);
    r.at(1.0, 0);
    EXPECT_THROW(r.queue.run_until(nan), std::invalid_argument);
    EXPECT_TRUE(r.labels.empty());
    EXPECT_EQ(r.queue.pending(), 1u);
    EXPECT_DOUBLE_EQ(r.queue.now(), 0.0);

    r.at(3.0, 1);
    r.queue.run_until(inf);
    EXPECT_EQ(r.labels, (std::vector<int>{0, 1}));
    EXPECT_DOUBLE_EQ(r.queue.now(), 3.0);
    r.in(2.0, 2);
    r.queue.run_until(inf);
    EXPECT_EQ(r.labels, (std::vector<int>{0, 1, 2}));
    EXPECT_DOUBLE_EQ(r.queue.now(), 5.0);

    // A -inf deadline is already past: nothing runs and the clock stays.
    r.at(6.0, 3);
    r.queue.run_until(-inf);
    EXPECT_EQ(r.queue.pending(), 1u);
    EXPECT_DOUBLE_EQ(r.queue.now(), 5.0);
  }
}

TEST(EventQueue, FifoHoldsWhenSimultaneousEventsScheduleMore) {
  // The closed-loop determinism story leans on the seq tie-break: an event
  // that schedules another event at the *same* timestamp must see it run
  // after every already-queued event at that timestamp.
  Recorder r;
  r.react = [](Recorder& rec, int label, double now) {
    if (label == 0) rec.at(now, 2);
  };
  r.at(1.0, 0);
  r.at(1.0, 1);
  r.drain();
  EXPECT_EQ(r.labels, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(r.queue.now(), 1.0);
}

TEST(EventQueue, TieKeyOrdersEqualTimeEventsBeforeArrival) {
  // The documented total order is (time, tie_key, seq): at one timestamp,
  // tie keys sort before arrival order, so the pop order depends only on
  // the keys — whatever order they were scheduled in.
  for (const auto backend :
       {EventQueueBackend::kHeap, EventQueueBackend::kCalendar}) {
    Recorder r(backend);
    for (int key = 4; key >= 0; --key) {
      r.at(1.0, key, static_cast<std::uint64_t>(key));
    }
    r.in(1.0, 5, 5);
    r.drain();
    EXPECT_EQ(r.labels, (std::vector<int>{0, 1, 2, 3, 4, 5}));

    util::Rng rng(0x71e5ULL);
    constexpr int kKeys = 32;
    std::vector<int> expected(kKeys);
    std::iota(expected.begin(), expected.end(), 0);
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<int> keys = expected;
      for (std::size_t i = keys.size() - 1; i > 0; --i) {
        std::swap(keys[i], keys[rng.uniform_int(i + 1)]);
      }
      Recorder shuffled(backend);
      for (const int key : keys) {
        shuffled.at(2.0, key, static_cast<std::uint64_t>(key));
      }
      shuffled.drain();
      ASSERT_EQ(shuffled.labels, expected)
          << "backend " << static_cast<int>(backend) << " trial " << trial;
    }
  }
}

TEST(EventQueue, ScheduleAtNowIsLegalAndRunsThisInstant) {
  Recorder r;
  r.react = [](Recorder& rec, int label, double now) {
    if (label == 0) rec.at(now, 1);  // not "the past"
  };
  r.at(2.0, 0);
  r.drain();
  EXPECT_EQ(r.labels, (std::vector<int>{0, 1}));
}

TEST(EventQueue, RunUntilWithStopAlreadyTrueRunsNothing) {
  Recorder r;
  r.at(1.0, 0);
  r.queue.run_until(10.0, [] { return true; });
  EXPECT_TRUE(r.labels.empty());
  EXPECT_DOUBLE_EQ(r.queue.now(), 0.0);  // a stopped clock does not jump ahead
  EXPECT_EQ(r.queue.pending(), 1u);
}

TEST(EventQueue, RunUntilStopMidwayLeavesClockAtLastEvent) {
  Recorder r;
  r.at(1.0, 0);
  r.at(5.0, 1);
  r.queue.run_until(10.0, [&r] { return !r.labels.empty(); });
  EXPECT_DOUBLE_EQ(r.queue.now(), 1.0);
  EXPECT_EQ(r.queue.pending(), 1u);
}

TEST(EventQueue, RunUntilOnEmptyQueueAdvancesToDeadline) {
  Recorder r;
  r.queue.run_until(7.5);
  EXPECT_DOUBLE_EQ(r.queue.now(), 7.5);
  EXPECT_TRUE(r.queue.empty());
}

// ------------------------------------------- Calendar backend equivalence --

TEST(EventQueue, CalendarIsTheDefaultBackend) {
  EXPECT_EQ(Recorder{}.queue.backend(), EventQueueBackend::kCalendar);
  EXPECT_EQ(SimulationConfig{}.event_queue, EventQueueBackend::kCalendar);
}

TEST(EventQueue, SchedulingInThePastThrowsOnEveryBackend) {
  // Past and non-finite times are rejected alike.  NaN needs its own case:
  // `when < now` is false for it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto backend :
       {EventQueueBackend::kHeap, EventQueueBackend::kCalendar}) {
    Recorder r(backend);
    r.at(5.0, 0);
    r.queue.step();
    for (const double when : {1.0, nan, inf}) {
      EXPECT_THROW(r.queue.schedule_event_at(when, 0, EventKind{1}, 0, 0),
                   std::invalid_argument)
          << when;
    }
    for (const double delay : {-1.0, nan, inf}) {
      EXPECT_THROW(r.queue.schedule_event_in(delay, 0, EventKind{1}, 0, 0),
                   std::invalid_argument)
          << delay;
    }
    // The rejected calls must not have half-enqueued anything.
    EXPECT_TRUE(r.queue.empty());
    EXPECT_EQ(r.queue.pending(), 0u);
    EXPECT_DOUBLE_EQ(r.queue.now(), 5.0);
    EXPECT_FALSE(r.queue.step());
    EXPECT_EQ(r.queue.events_processed(), 1u);
  }
}

// The acceptance bar for an O(1) backend: under randomized interleaved
// scheduling and popping — equal-time ties, fractional boundary-hugging
// times, far-future sparse stretches, events scheduling events — the
// candidate backend must pop the exact same label sequence as the reference
// heap.  Both implement the same documented (time, tie_key, seq) total
// order, so the sequences are equal by construction or one of them is
// broken.
void expect_pop_sequence_matches_heap(EventQueueBackend candidate) {
  util::Rng rng(0xca1e2026ULL);
  for (int trial = 0; trial < 10; ++trial) {
    Recorder heap(EventQueueBackend::kHeap);
    Recorder other(candidate);
    int label = 0;
    auto schedule_both = [&](double delay, std::uint64_t key) {
      heap.at(heap.queue.now() + delay, label, key);
      other.at(other.queue.now() + delay, label, key);
      ++label;
    };
    for (int round = 0; round < 50; ++round) {
      const int burst = 1 + static_cast<int>(rng.uniform_int(8));
      for (int i = 0; i < burst; ++i) {
        double delay = 0.0;
        switch (rng.uniform_int(4)) {
          case 0:  // quantized near delays: heavy equal-time collisions
            delay = 0.25 * static_cast<double>(rng.uniform_int(8));
            break;
          case 1:  // continuous near delays: bucket-boundary huggers
            delay = rng.uniform(0.0, 4.0);
            break;
          case 2:  // mid-range
            delay = rng.uniform(0.0, 64.0);
            break;
          case 3:  // far future: sparse-year jumps and resizes
            delay = 256.0 + rng.uniform(0.0, 4096.0);
            break;
        }
        schedule_both(delay, rng.uniform_int(4));
      }
      // Drain a random prefix from both in lockstep; clocks stay equal, so
      // the relative delays above land on identical absolute times.
      const int pops = static_cast<int>(rng.uniform_int(6));
      for (int i = 0; i < pops; ++i) {
        const bool heap_popped = heap.queue.step();
        ASSERT_EQ(heap_popped, other.queue.step());
      }
      ASSERT_DOUBLE_EQ(heap.queue.now(), other.queue.now());
    }
    heap.drain();
    other.drain();
    ASSERT_EQ(heap.labels, other.labels) << "trial " << trial;
    ASSERT_DOUBLE_EQ(heap.queue.now(), other.queue.now());
    EXPECT_EQ(heap.queue.events_processed(), other.queue.events_processed());
  }
}

TEST(EventQueue, CalendarPopSequenceMatchesHeapUnderRandomChurn) {
  expect_pop_sequence_matches_heap(EventQueueBackend::kCalendar);
}

TEST(EventQueue, CalendarSurvivesResizeChurn) {
  // Push enough to force doubling resizes, drain to force shrinks, and keep
  // the order invariant throughout.  Times repeat across waves' offsets so
  // bucket occupancy is lumpy.
  Recorder r(EventQueueBackend::kCalendar);
  util::Rng rng(77);
  std::size_t scheduled = 0;
  for (int wave = 0; wave < 4; ++wave) {
    for (int i = 0; i < 3000; ++i) {
      r.at(r.queue.now() + rng.uniform(0.0, 50.0), 0);
      ++scheduled;
    }
    // Partial drain between waves shrinks the ring again.
    for (int i = 0; i < 2500 && r.queue.step(); ++i) {
    }
  }
  r.drain();
  EXPECT_TRUE(std::is_sorted(r.times.begin(), r.times.end()));
  EXPECT_EQ(r.times.size(), scheduled);
  EXPECT_EQ(r.queue.events_processed(), scheduled);
}

TEST(EventQueue, CalendarGrowBoundaryKeepsOrderAtExactThreshold) {
  // Regression for the 2N grow rule: walk the pending count right across
  // the resize thresholds (16 -> rebuild at 17 pushes on the 8-bucket ring,
  // then again at each doubling) with every event at the *same* timestamp,
  // the degenerate span that forces the width clamp (hi == lo) down the
  // std::max({1.0, 1e-9, hi * 2^-40}) path.  Pop order must stay the
  // documented tie-key order through every rebuild.
  Recorder r(EventQueueBackend::kCalendar);
  constexpr int kEvents = 600;  // crosses 16, 32, 64, 128, 256, 512
  for (int i = kEvents - 1; i >= 0; --i) {
    r.at(1000.0, i, static_cast<std::uint64_t>(i));
  }
  r.drain();
  ASSERT_EQ(r.labels.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) {
    ASSERT_EQ(r.labels[static_cast<std::size_t>(i)], i) << "at pop " << i;
  }
}

TEST(EventQueue, CalendarPushBelowRebuildFloorPullsCursorBack) {
  // Stranded-event regression.  A grow rebuild re-anchors the cursor at
  // the home bucket of the minimum event present *at rebuild time*, but a
  // later push may legally arrive earlier than that minimum (any time >=
  // the last pop is valid — here nothing has popped, so anything >= 0).
  // Without the push-side cursor pull-back such an event sits behind the
  // cursor where the year scan never looks, and pops arbitrarily late:
  // the 10M-device seeding loop rebuilds mid-seed, and every later device
  // that drew a check-in below the rebuild-time minimum was stranded —
  // heap and calendar trajectories diverged from the very first pop.
  Recorder r(EventQueueBackend::kCalendar);
  // 17 pushes on the initial 8-bucket ring trigger the grow rebuild; the
  // degenerate span (hi == lo == 10) clamps the width to 1.0, anchoring
  // the cursor at virtual bucket 10.
  for (int i = 0; i < 17; ++i) r.at(10.0, 0);
  // Home bucket 0 — behind the post-rebuild cursor.  Must still pop first.
  r.at(0.5, 0);
  r.drain();
  ASSERT_EQ(r.times.size(), 18u);
  EXPECT_DOUBLE_EQ(r.times.front(), 0.5);
  for (std::size_t i = 1; i < r.times.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.times[i], 10.0) << "at pop " << i;
  }
}

TEST(EventQueue, CalendarShrinkBoundaryKeepsOrderAcrossWidthRetune) {
  // Regression for the N/4 shrink rule: grow the ring with a wide time
  // span (large width estimate), then drain until size_ < buckets/4 so the
  // rebuild re-tunes the width from the *surviving* (narrow, far-future)
  // span.  The pop order across the shrink — where every surviving event's
  // virtual bucket is recomputed under a new width — must stay global.
  Recorder r(EventQueueBackend::kCalendar);
  util::Rng rng(0x5157ULL);
  std::vector<double> times;
  // 200 near events across a wide span (drives width up on grow rebuilds)
  // and 40 far events packed into a 2-second window (the survivors).
  for (int i = 0; i < 200; ++i) times.push_back(rng.uniform(0.0, 5000.0));
  for (int i = 0; i < 40; ++i) times.push_back(9000.0 + rng.uniform(0.0, 2.0));
  for (const double t : times) r.at(t, 0);
  r.drain();
  std::sort(times.begin(), times.end());
  ASSERT_EQ(r.times.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    ASSERT_DOUBLE_EQ(r.times[i], times[i]) << "at pop " << i;
  }
}

TEST(EventQueue, CalendarBucketEdgeRoundingCannotSplitPushFromScan) {
  // Bucket-edge FP rounding regression: schedule times that hug bucket
  // boundaries from both sides at many magnitudes (k*width ± 1 ulp-ish
  // offsets).  Push and the year scan share one floor(time/width)
  // expression, so an edge-hugger must never qualify in a different bucket
  // than it was inserted into — which would either skip it (hang) or pop
  // it out of order.
  Recorder r(EventQueueBackend::kCalendar);
  std::vector<double> times;
  for (int k = 1; k <= 64; ++k) {
    const double edge = static_cast<double>(k);  // initial width_ is 1.0
    times.push_back(edge);
    times.push_back(std::nextafter(edge, 0.0));
    times.push_back(std::nextafter(edge, 1e9));
    times.push_back(edge * 128.0);  // far enough to cross rebuilt widths
  }
  for (const double t : times) r.at(t, 0);
  r.drain();
  std::sort(times.begin(), times.end());
  ASSERT_EQ(r.times.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    ASSERT_DOUBLE_EQ(r.times[i], times[i]) << "at pop " << i;
  }
}

// -------------------------------------------------------------- Population --

PopulationConfig default_population(std::size_t n = 20000) {
  PopulationConfig cfg;
  cfg.num_devices = n;
  cfg.seed = 7;
  return cfg;
}

TEST(Population, ExecutionTimesSpanTwoOrdersOfMagnitude) {
  // The Fig. 2 requirement.
  const DevicePopulation pop(default_population());
  std::vector<double> times;
  times.reserve(pop.size());
  for (std::size_t i = 0; i < pop.size(); ++i) {
    times.push_back(pop.profile(i).mean_exec_time_s);
  }
  const double p1 = util::percentile(times, 1.0);
  const double p99 = util::percentile(times, 99.0);
  EXPECT_GT(p99 / p1, 100.0);
}

TEST(Population, SlownessCorrelatesWithExampleCount) {
  // The Sec. 7.4 requirement: "very high correlation between slow devices
  // and devices with many training samples".
  const DevicePopulation pop(default_population());
  std::vector<double> slowness, examples;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    const DeviceProfile d = pop.profile(i);
    slowness.push_back(std::log(d.hardware_factor));
    examples.push_back(static_cast<double>(d.num_examples));
  }
  EXPECT_GT(util::pearson(slowness, examples), 0.6);
}

TEST(Population, ExampleCountsWithinRange) {
  PopulationConfig cfg = default_population(5000);
  cfg.min_examples = 3;
  cfg.max_examples = 17;
  const DevicePopulation pop(cfg);
  for (std::size_t i = 0; i < pop.size(); ++i) {
    const DeviceProfile d = pop.profile(i);
    EXPECT_GE(d.num_examples, 3u);
    EXPECT_LE(d.num_examples, 17u);
  }
}

TEST(Population, DeterministicFromSeed) {
  const DevicePopulation a(default_population(100));
  const DevicePopulation b(default_population(100));
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.profile(i).mean_exec_time_s,
                     b.profile(i).mean_exec_time_s);
    EXPECT_EQ(a.profile(i).num_examples, b.profile(i).num_examples);
  }
}

TEST(Population, SampledExecTimeJittersAroundMean) {
  const DevicePopulation pop(default_population(10));
  util::Rng rng(9);
  const DeviceProfile d = pop.profile(0);
  util::RunningStat stat;
  for (int i = 0; i < 2000; ++i) {
    stat.add(pop.sample_exec_time(d, rng));
  }
  // Log-normal jitter with sigma 0.2: mean ~ mean_exec * exp(0.02).
  EXPECT_NEAR(stat.mean(), d.mean_exec_time_s * std::exp(0.02),
              0.05 * d.mean_exec_time_s);
}

TEST(Population, ZeroCorrelationDecouplesExamples) {
  PopulationConfig cfg = default_population(20000);
  cfg.slowness_example_correlation = 0.0;
  const DevicePopulation pop(cfg);
  std::vector<double> slowness, examples;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    const DeviceProfile d = pop.profile(i);
    slowness.push_back(std::log(d.hardware_factor));
    examples.push_back(static_cast<double>(d.num_examples));
  }
  EXPECT_NEAR(util::pearson(slowness, examples), 0.0, 0.05);
}

TEST(Population, InvalidConfigThrows) {
  PopulationConfig cfg = default_population(0);
  EXPECT_THROW(DevicePopulation{cfg}, std::invalid_argument);
  cfg = default_population(10);
  cfg.min_examples = 10;
  cfg.max_examples = 5;
  EXPECT_THROW(DevicePopulation{cfg}, std::invalid_argument);
}

TEST(Population, QuantileMappingIsHalfOpenWithClosedTopEdge) {
  // Regression for the example-count bucket mapping: u ∈ [k/range,
  // (k+1)/range) lands in bucket k; only u == 1.0 exactly takes the top
  // bucket's closed upper edge.
  EXPECT_EQ(DevicePopulation::example_count_from_quantile(0.0, 3, 6), 3u);
  EXPECT_EQ(DevicePopulation::example_count_from_quantile(0.249, 3, 6), 3u);
  EXPECT_EQ(DevicePopulation::example_count_from_quantile(0.25, 3, 6), 4u);
  EXPECT_EQ(DevicePopulation::example_count_from_quantile(0.5, 3, 6), 5u);
  EXPECT_EQ(DevicePopulation::example_count_from_quantile(0.75, 3, 6), 6u);
  const double just_under_one = std::nextafter(1.0, 0.0);
  EXPECT_EQ(DevicePopulation::example_count_from_quantile(just_under_one, 3, 6),
            6u);
  EXPECT_EQ(DevicePopulation::example_count_from_quantile(1.0, 3, 6), 6u);
  // Degenerate single-bucket range.
  EXPECT_EQ(DevicePopulation::example_count_from_quantile(0.0, 5, 5), 5u);
  EXPECT_EQ(DevicePopulation::example_count_from_quantile(1.0, 5, 5), 5u);
}

TEST(Population, QuantileMappingDistributesBucketsUniformly) {
  // Pin the bucket weights: a uniform grid of quantiles must land exactly
  // evenly across [lo, hi] — the half-open mapping gives every count k the
  // same probability mass 1/range, including both endpoints.
  constexpr std::size_t kLo = 2, kHi = 9;  // 8 buckets
  constexpr std::size_t kGrid = 8000;      // 1000 grid points per bucket
  std::vector<std::size_t> hits(kHi + 1, 0);
  for (std::size_t i = 0; i < kGrid; ++i) {
    const double u = (static_cast<double>(i) + 0.5) / kGrid;
    ++hits[DevicePopulation::example_count_from_quantile(u, kLo, kHi)];
  }
  for (std::size_t k = kLo; k <= kHi; ++k) {
    EXPECT_EQ(hits[k], kGrid / (kHi - kLo + 1)) << "bucket " << k;
  }
}

// ----------------------------------------------------------------- Network --

TEST(Network, LargerTransfersTakeLonger) {
  NetworkModel net({});
  util::Rng rng(10);
  double small = 0.0, large = 0.0;
  for (int i = 0; i < 200; ++i) {
    small += net.download_time_s(100'000, rng);
    large += net.download_time_s(10'000'000, rng);
  }
  EXPECT_GT(large, small);
}

TEST(Network, IncludesRtt) {
  NetworkConfig cfg;
  cfg.rtt_s = 2.0;
  NetworkModel net(cfg);
  util::Rng rng(11);
  EXPECT_GE(net.download_time_s(1, rng), 2.0);
}

TEST(Network, ZeroByteTransfersAreFreeAndDrawless) {
  NetworkModel net({});
  util::Rng rng(12);
  EXPECT_DOUBLE_EQ(net.download_time_s(0, rng), 0.0);
  EXPECT_DOUBLE_EQ(net.upload_time_s(0, rng), 0.0);
  // No jitter draw was consumed by either zero-byte transfer: the next raw
  // draw is still the seed's first (draw budgets are per-participation
  // invariants in per-entity stream mode).
  util::Rng untouched(12);
  EXPECT_EQ(rng.next(), untouched.next());
}

TEST(Network, NonpositiveBandwidthIsRejectedAtConstruction) {
  NetworkConfig cfg;
  cfg.mean_download_mbps = 0.0;
  EXPECT_THROW(NetworkModel{cfg}, std::invalid_argument);
  cfg = {};
  cfg.mean_upload_mbps = -1.0;
  EXPECT_THROW(NetworkModel{cfg}, std::invalid_argument);
  cfg = {};
  cfg.serialize_mbps = 0.0;
  EXPECT_THROW(NetworkModel{cfg}, std::invalid_argument);
  cfg = {};
  cfg.rtt_s = -0.1;
  EXPECT_THROW(NetworkModel{cfg}, std::invalid_argument);
}

TEST(Network, StreamRngJitterMatchesSharedRngBitForBit) {
  // The jitter draw is generic over the generator: the same raw 64-bit
  // draws produce the same transfer time whichever generator supplies them
  // (the distribution layer is shared — util::RngDistributions).
  NetworkModel net({});
  util::Rng xoshiro(3);
  util::Rng xoshiro_replay(3);
  EXPECT_DOUBLE_EQ(net.download_time_s(1 << 20, xoshiro),
                   net.download_time_s(1 << 20, xoshiro_replay));
  util::StreamRng stream(3, 1, 1);
  util::StreamRng stream_replay(3, 1, 1);
  EXPECT_DOUBLE_EQ(net.upload_time_s(1 << 20, stream),
                   net.upload_time_s(1 << 20, stream_replay));
}

// ----------------------------------------------------------------- Metrics --

TEST(TimeSeries, ValueAtReturnsLastValueAtOrBefore) {
  TimeSeries ts;
  ts.add(1.0, 10.0);
  ts.add(2.0, 20.0);
  ts.add(4.0, 40.0);
  EXPECT_TRUE(std::isnan(ts.value_at(0.5)));
  EXPECT_DOUBLE_EQ(ts.value_at(1.0), 10.0);
  EXPECT_DOUBLE_EQ(ts.value_at(3.0), 20.0);
  EXPECT_DOUBLE_EQ(ts.value_at(100.0), 40.0);
}

TEST(TimeSeries, ValueAtBoundaryCases) {
  TimeSeries empty;
  EXPECT_TRUE(std::isnan(empty.value_at(0.0)));

  TimeSeries single;
  single.add(2.0, 7.0);
  EXPECT_TRUE(std::isnan(single.value_at(1.999)));
  EXPECT_DOUBLE_EQ(single.value_at(2.0), 7.0);   // t == times.front()
  EXPECT_DOUBLE_EQ(single.value_at(1e9), 7.0);   // far past the end

  TimeSeries ts;
  ts.add(1.0, 1.0);
  ts.add(1.0, 1.5);  // equal-time appends are legal (monotone, not strict)
  ts.add(3.0, 3.0);
  EXPECT_DOUBLE_EQ(ts.value_at(1.0), 1.5);  // latest value at a repeated t
  EXPECT_DOUBLE_EQ(ts.value_at(3.0), 3.0);  // t == times.back()
  EXPECT_DOUBLE_EQ(ts.value_at(2.0), 1.5);
}

TEST(TimeSeries, CappedSeriesDecimatesDeterministically) {
  // With a capacity the series keeps a stride-decimated prefix-preserving
  // subsample: bounded memory, first point always retained, still
  // time-monotone, and value_at keeps working on the survivors.
  TimeSeries ts;
  ts.set_capacity(8);
  for (int i = 0; i < 1000; ++i) {
    ts.add(static_cast<double>(i), static_cast<double>(i));
  }
  EXPECT_LE(ts.size(), 8u);
  EXPECT_GE(ts.size(), 4u);  // halving never drops below cap/2
  EXPECT_DOUBLE_EQ(ts.times.front(), 0.0);
  for (std::size_t i = 1; i < ts.size(); ++i) {
    EXPECT_GT(ts.times[i], ts.times[i - 1]);
  }
  EXPECT_DOUBLE_EQ(ts.value_at(999.0), ts.values.back());

  // Identical input → identical survivors (pure function of the sequence).
  TimeSeries replay;
  replay.set_capacity(8);
  for (int i = 0; i < 1000; ++i) {
    replay.add(static_cast<double>(i), static_cast<double>(i));
  }
  EXPECT_EQ(ts.times, replay.times);
  EXPECT_EQ(ts.values, replay.values);
}

TEST(TimeSeries, UncappedSeriesKeepsEveryPoint) {
  TimeSeries ts;  // capacity 0 = unlimited (the default)
  for (int i = 0; i < 100; ++i) ts.add(static_cast<double>(i), 0.0);
  EXPECT_EQ(ts.size(), 100u);
}

// -------------------------------------------------------------- Model store --

SimulationConfig store_config() {
  SimulationConfig cfg;
  cfg.task.name = "lm";
  cfg.task.mode = fl::TrainingMode::kAsync;
  cfg.task.concurrency = 12;
  cfg.task.aggregation_goal = 2;
  cfg.population.num_devices = 100;
  cfg.corpus.vocab_size = 32;
  cfg.model.vocab_size = 32;
  cfg.model.embed_dim = 6;
  cfg.model.hidden_dim = 8;
  cfg.max_server_steps = 20;
  cfg.eval_every_steps = 10;
  cfg.seed = 5;
  return cfg;
}

TEST(Simulator, UnconstrainedModelStoreNeverStalls) {
  SimulationConfig cfg = store_config();
  FlSimulator simulator(cfg);
  const auto result = simulator.run();
  EXPECT_EQ(result.model_store_stats.writes, result.server_steps);
  EXPECT_DOUBLE_EQ(result.model_store_stats.stall_s, 0.0);
}

TEST(Simulator, TightModelStoreAccumulatesStall) {
  // Model is ~10^4 bytes; at 10 B/s each publish takes ~10^3 s while steps
  // land every few sim-seconds — the Sec. 7.3 pressure must register.
  SimulationConfig cfg = store_config();
  cfg.model_store.write_bandwidth_bytes_per_s = 10.0;
  FlSimulator simulator(cfg);
  const auto result = simulator.run();
  EXPECT_EQ(result.model_store_stats.writes, result.server_steps);
  EXPECT_GT(result.model_store_stats.stall_s, 0.0);
  EXPECT_GT(result.model_store_stats.bytes_written, 0u);
}

TEST(Simulator, ModelStoreDoesNotPerturbTraining) {
  // Metering is observational: identical seeds converge to bit-identical
  // models regardless of store bandwidth.
  SimulationConfig cfg = store_config();
  FlSimulator unconstrained(cfg);
  cfg.model_store.write_bandwidth_bytes_per_s = 10.0;
  FlSimulator constrained(cfg);
  EXPECT_EQ(unconstrained.run().final_model, constrained.run().final_model);
}

// ------------------------------------------------------ Sharded aggregation --

TEST(Simulator, ShardedTaskTrainsEndToEnd) {
  // The sharded server path (task.aggregator_shards > 1) must carry a whole
  // simulated deployment: client updates are consistent-hashed across
  // per-shard pipelines, every goal still triggers exactly one cross-shard
  // server step, and the update-conservation invariants hold.
  SimulationConfig cfg = store_config();
  cfg.task.aggregator_shards = 4;
  FlSimulator simulator(cfg);
  const auto result = simulator.run();
  EXPECT_EQ(result.server_steps, 20u);
  EXPECT_EQ(result.task_stats.updates_applied,
            result.server_steps * cfg.task.aggregation_goal);
  EXPECT_GE(result.task_stats.updates_received,
            result.task_stats.updates_applied);
  EXPECT_GT(result.final_eval_loss, 0.0);
}

TEST(Simulator, ShardedRunIsDeterministicPerShardCount) {
  // Stream-to-shard placement is hash-deterministic and each single-worker
  // shard folds in arrival order, so a sharded simulation is bit-for-bit
  // reproducible for a fixed shard count.
  SimulationConfig cfg = store_config();
  cfg.task.aggregator_shards = 2;
  cfg.max_server_steps = 8;
  FlSimulator first(cfg);
  FlSimulator second(cfg);
  EXPECT_EQ(first.run().final_model, second.run().final_model);
}

// ------------------------------------------------ Pipelined client runtime --

TEST(Simulator, PipelinedModeMatchesSequentialBitForBit) {
  // TaskConfig::pipelined_clients is an observational latency model (like
  // ModelStore metering): with the same seed, pipelining on and off must
  // produce identical model trajectories, applied-update counts, and event
  // schedules — only per-client latency metrics may differ.
  SimulationConfig cfg = store_config();
  cfg.max_server_steps = 12;
  FlSimulator sequential(cfg);
  cfg.task.pipelined_clients = true;
  FlSimulator pipelined(cfg);

  const auto a = sequential.run();
  const auto b = pipelined.run();
  EXPECT_EQ(a.final_model, b.final_model);
  EXPECT_EQ(a.server_steps, b.server_steps);
  EXPECT_EQ(a.task_stats.updates_applied, b.task_stats.updates_applied);
  EXPECT_EQ(a.task_stats.updates_received, b.task_stats.updates_received);
  EXPECT_EQ(a.task_stats.updates_discarded, b.task_stats.updates_discarded);
  EXPECT_EQ(a.participations_started, b.participations_started);
  EXPECT_DOUBLE_EQ(a.end_time_s, b.end_time_s);
  // The whole trajectory, not just the endpoint: identical evaluation
  // points at identical times.
  EXPECT_EQ(a.loss_curve.times, b.loss_curve.times);
  EXPECT_EQ(a.loss_curve.values, b.loss_curve.values);
}

TEST(Simulator, PipelinedLatencyDropsWhileDynamicsUnchanged) {
  // With multi-chunk uploads the pipelined schedule genuinely overlaps
  // train/serialize/upload: every completed participation's pipelined
  // latency must beat the sequential stage-sum charge, while the protocol
  // schedule (and therefore every record's identity and timing) matches
  // the sequential run exactly.
  SimulationConfig cfg = store_config();
  cfg.upload_chunk_bytes = 256;  // force several chunks per upload
  cfg.max_server_steps = 10;
  FlSimulator sequential(cfg);
  cfg.task.pipelined_clients = true;
  FlSimulator pipelined(cfg);

  const auto a = sequential.run();
  const auto b = pipelined.run();
  EXPECT_EQ(a.final_model, b.final_model);
  ASSERT_EQ(a.participations.size(), b.participations.size());

  std::size_t completed = 0;
  for (std::size_t i = 0; i < a.participations.size(); ++i) {
    const auto& seq = a.participations[i];
    const auto& pipe = b.participations[i];
    EXPECT_EQ(seq.client_id, pipe.client_id);
    EXPECT_EQ(seq.update_applied, pipe.update_applied);
    EXPECT_DOUBLE_EQ(seq.start_time, pipe.start_time);
    EXPECT_DOUBLE_EQ(seq.round_latency_s, pipe.round_latency_s);
    if (seq.round_latency_s > 0.0) {  // completed participation
      ++completed;
      // Sequential mode reports the stage sum for both metrics.
      EXPECT_DOUBLE_EQ(seq.pipelined_latency_s, seq.round_latency_s);
      // Pipelined mode strictly beats it once there is overlap to exploit.
      EXPECT_GT(pipe.upload_chunks, 1u);
      EXPECT_LT(pipe.pipelined_latency_s, pipe.round_latency_s);
      EXPECT_GT(pipe.pipelined_latency_s, 0.0);
    }
  }
  EXPECT_GT(completed, 0u);
}

TEST(Simulator, PipelinedRunIsDeterministicIncludingBusySeries) {
  SimulationConfig cfg = store_config();
  cfg.task.pipelined_clients = true;
  cfg.record_utilization = true;
  cfg.max_server_steps = 6;
  FlSimulator first(cfg);
  FlSimulator second(cfg);
  const auto a = first.run();
  const auto b = second.run();
  EXPECT_EQ(a.final_model, b.final_model);
  EXPECT_EQ(a.busy_clients.times, b.busy_clients.times);
  EXPECT_EQ(a.busy_clients.values, b.busy_clients.values);
  EXPECT_GT(a.busy_clients.size(), 0u);
  // The busy gauge stays within the concurrency envelope.
  for (const double v : a.busy_clients.values) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, static_cast<double>(cfg.task.concurrency));
  }
}

TEST(Simulator, BusySeriesOnlyRecordedWhenPipelined) {
  SimulationConfig cfg = store_config();
  cfg.record_utilization = true;
  cfg.max_server_steps = 4;
  FlSimulator simulator(cfg);
  const auto result = simulator.run();
  EXPECT_GT(result.active_clients.size(), 0u);
  EXPECT_EQ(result.busy_clients.size(), 0u);
}

// --------------------------------------------------- trajectory goldens --

std::uint64_t fnv1a_floats(const std::vector<float>& data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  for (std::size_t i = 0; i < data.size() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

double exec_time_sum(const SimulationResult& r) {
  double sum = 0.0;
  for (const auto& p : r.participations) sum += p.exec_time_s;
  return sum;
}

TEST(Simulator, AsyncTrajectoryMatchesPinnedFingerprint) {
  // A fingerprint of one AsyncFL trajectory.  The constants were captured
  // from commit b527028 running exactly this config with per-entity streams
  // and keyed lazy profiles selected.  If this test fails, some draw site,
  // profile read or fold order changed.
  SimulationConfig cfg = store_config();  // async, seed 5, 20 steps
  FlSimulator simulator(cfg);
  const auto r = simulator.run();
  EXPECT_DOUBLE_EQ(r.end_time_s, 177.47279906522687);
  EXPECT_EQ(r.server_steps, 20u);
  EXPECT_EQ(r.comm_trips, 40u);
  EXPECT_EQ(r.participations_started, 55u);
  EXPECT_DOUBLE_EQ(r.final_eval_loss, 3.4458542600833515);
  ASSERT_EQ(r.participations.size(), 44u);
  EXPECT_DOUBLE_EQ(exec_time_sum(r), 1355.8534298905934);
  EXPECT_EQ(fnv1a_floats(r.final_model), 0x9e6895e654ed52fdULL);
}

TEST(Simulator, SyncTrajectoryMatchesPinnedFingerprint) {
  // Same fingerprint discipline for the SyncFL path (cohort semantics hit
  // the same draw sites in a different schedule).
  SimulationConfig cfg = store_config();
  cfg.task.mode = fl::TrainingMode::kSync;
  cfg.task.concurrency = 13;
  cfg.task.aggregation_goal = 10;
  cfg.max_server_steps = 6;
  cfg.seed = 9;
  FlSimulator simulator(cfg);
  const auto r = simulator.run();
  EXPECT_DOUBLE_EQ(r.end_time_s, 548.20760642182836);
  EXPECT_EQ(r.server_steps, 6u);
  EXPECT_EQ(r.comm_trips, 60u);
  EXPECT_EQ(r.participations_started, 81u);
  EXPECT_DOUBLE_EQ(r.final_eval_loss, 3.4554497824187695);
  ASSERT_EQ(r.participations.size(), 81u);
  EXPECT_DOUBLE_EQ(exec_time_sum(r), 5006.9542912525239);
  EXPECT_EQ(fnv1a_floats(r.final_model), 0x57196e54404989dcULL);
}

}  // namespace
}  // namespace papaya::sim
