// The event-engine acceptance suite for the POD event record (ISSUE 10):
//
//   1. the 32-byte record dispatches through the dispatcher the queue was
//      constructed with, kind/entity/payload intact, in the documented
//      total order, on every backend;
//   2. steady-state scheduling is allocation-free — proven by a global
//      operator new/delete counter, not by inspection — at the queue level
//      (strict zero) and through the simulator's participation hot path
//      (allocations must not scale with events processed);
//   3. the enum-dispatch refactor of FlSimulator preserved trajectories
//      bit-for-bit: the fig9-style async config reproduces fingerprints
//      captured from the pre-refactor closure scheduler, on both
//      backends.
//
// This file owns the binary-wide operator new/delete replacement, so it
// must stay its own test executable.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/fl_simulator.hpp"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

// Counting replacements for the global allocation functions.  Only the
// throwing forms allocate in this codebase; the sized/array deletes forward
// so the replacement set stays consistent.
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace papaya::sim {
namespace {

std::uint64_t allocations() {
  return g_news.load(std::memory_order_relaxed);
}

// ------------------------------------------------------ dispatch round-trip --

struct Recorded {
  EventKind kind;
  std::uint32_t entity;
  std::uint32_t payload;
  double now;
};

void record_dispatch(void* ctx, EventKind kind, std::uint32_t entity,
                     std::uint32_t payload, double now) {
  static_cast<std::vector<Recorded>*>(ctx)->push_back(
      {kind, entity, payload, now});
}

TEST(EventEngine, EveryKindRoundTripsThroughDispatchOnEveryBackend) {
  for (const auto backend :
       {EventQueueBackend::kHeap, EventQueueBackend::kCalendar}) {
    std::vector<Recorded> seen;
    EventQueue q(&record_dispatch, &seen, backend);
    // All 256 kinds, distinct entities and payloads, ascending times.
    for (unsigned k = 0; k <= 255; ++k) {
      q.schedule_event_at(0.5 * static_cast<double>(k), /*tie_key=*/0,
                          static_cast<EventKind>(k), 1000u + k, 7u * k);
    }
    while (q.step()) {
    }
    ASSERT_EQ(seen.size(), 256u);
    for (unsigned k = 0; k <= 255; ++k) {
      const Recorded& r = seen[k];
      EXPECT_EQ(r.kind, static_cast<EventKind>(k));
      EXPECT_EQ(r.entity, 1000u + k);
      EXPECT_EQ(r.payload, 7u * k);
      EXPECT_DOUBLE_EQ(r.now, 0.5 * static_cast<double>(k));
    }
  }
}

TEST(EventEngine, NullDispatcherIsRejectedAtConstruction) {
  // No queue exists that could pop an event with nowhere to send it.
  for (const auto backend :
       {EventQueueBackend::kHeap, EventQueueBackend::kCalendar}) {
    EXPECT_THROW(EventQueue q(nullptr, nullptr, backend),
                 std::invalid_argument);
  }
}

TEST(EventEngine, PastTimePodScheduleThrowsAndEnqueuesNothing) {
  std::vector<Recorded> seen;
  EventQueue q(&record_dispatch, &seen);
  q.schedule_event_at(5.0, 0, EventKind{1}, 0, 0);
  ASSERT_TRUE(q.step());
  EXPECT_THROW(q.schedule_event_at(1.0, 0, EventKind{1}, 0, 0),
               std::invalid_argument);
  EXPECT_THROW(q.schedule_event_in(-1.0, 0, EventKind{1}, 0, 0),
               std::invalid_argument);
  EXPECT_TRUE(q.empty());
}

TEST(EventEngine, RecordIs32Bytes) {
  // The header static_asserts the private record; this pins the public
  // constant the macro bench budgets with.
  EXPECT_EQ(EventQueue::kEventRecordBytes, 32u);
}

// ------------------------------------------------- allocation-free scheduling --

struct ReschedulerCtx {
  EventQueue* q = nullptr;
  std::uint64_t pops = 0;
};

// Steady-state workload: every pop reschedules the same event kind with a
// constant delay, so the pending set keeps its seeded uniform spacing
// forever and bucket occupancy is exactly periodic — after warm-up every
// backend has seen its maximal bucket shapes and retained the capacity.
// (Varying delays would slowly drift event spacings, creeping per-bucket
// occupancy high-water marks and turning "zero" into "eventually zero".)
void reschedule_dispatch(void* ctx, EventKind kind, std::uint32_t entity,
                         std::uint32_t payload, double) {
  auto* c = static_cast<ReschedulerCtx*>(ctx);
  c->q->schedule_event_in(2.875, entity, kind, entity, payload);
  ++c->pops;
}

TEST(EventEngine, PodSteadyStateSchedulingIsAllocationFree) {
  for (const auto backend :
       {EventQueueBackend::kHeap, EventQueueBackend::kCalendar}) {
    ReschedulerCtx ctx;
    EventQueue q(&reschedule_dispatch, &ctx, backend);
    ctx.q = &q;
    constexpr std::uint32_t kPending = 512;
    for (std::uint32_t i = 0; i < kPending; ++i) {
      q.schedule_event_at(0.01 * static_cast<double>(i), i,
                          static_cast<EventKind>(1 + i % 5), i, i);
    }
    // Warm-up: long enough that the calendar's post-rebuild ring completes
    // several full revolutions, so every bucket has been stretched to its
    // periodic peak occupancy.
    for (int i = 0; i < 60000; ++i) {
      ASSERT_TRUE(q.step());
    }
    const std::uint64_t before = allocations();
    for (int i = 0; i < 8000; ++i) {
      q.step();
    }
    const std::uint64_t after = allocations();
    EXPECT_EQ(after - before, 0u)
        << "backend " << static_cast<int>(backend)
        << " allocated on the steady-state POD scheduling path";
    EXPECT_EQ(q.pending(), kPending);
  }
}

// --------------------------------------- simulator participation hot path --

SimulationConfig engine_config(double horizon_s, EventQueueBackend backend) {
  SimulationConfig cfg;
  cfg.task.name = "engine";
  cfg.task.mode = fl::TrainingMode::kAsync;
  cfg.task.concurrency = 16;
  cfg.task.aggregation_goal = 8;
  cfg.population.num_devices = 2000;
  cfg.population.seed = 7;
  cfg.corpus.vocab_size = 32;
  cfg.model.vocab_size = 32;
  cfg.model.embed_dim = 4;
  cfg.model.hidden_dim = 8;
  cfg.model.context = 2;
  cfg.trainer.batch_size = 8;
  cfg.eval_set_size = 16;
  cfg.eval_every_steps = 1000000;
  // Nobody is ever eligible: the run is pure check-in/backoff event churn —
  // the exact per-event path a 10M-device population hammers — with no
  // participation-body allocations (snapshots, training) in the way.
  cfg.device_unavailable_prob = 1.0;
  cfg.mean_checkin_interval_s = 15.0;
  // Push the first report tick past the horizon: the server sweep builds
  // per-tick report vectors, which is per-tick work, not per-event work.
  cfg.report_interval_s = 1.0e9;
  cfg.event_queue = backend;
  cfg.record_participations = false;
  cfg.metrics.max_timeseries_points = 32;
  cfg.max_sim_time_s = horizon_s;
  cfg.seed = 7;
  return cfg;
}

struct RunAllocs {
  std::uint64_t allocs;
  std::uint64_t events;
};

RunAllocs run_counting(double horizon_s, EventQueueBackend backend) {
  FlSimulator sim(engine_config(horizon_s, backend));
  const std::uint64_t before = allocations();
  const auto result = sim.run();
  return {allocations() - before, result.events_processed};
}

TEST(EventEngine, SimulatorEventPathAllocationsDoNotScaleWithEvents) {
  // Two identical deployments, one run three times longer.  Construction
  // and end-of-run bookkeeping allocate identically; the only difference is
  // tens of thousands of extra scheduled-and-dispatched events.  With the
  // POD record the per-event path costs zero allocations, so on the heap
  // backend — whose storage (one vector) plateaus at peak pending — the
  // totals must agree to a small constant margin.
  const RunAllocs short_run = run_counting(300.0, EventQueueBackend::kHeap);
  const RunAllocs long_run = run_counting(900.0, EventQueueBackend::kHeap);
  ASSERT_GT(long_run.events, short_run.events + 20000u)
      << "horizon tripling must pump tens of thousands of extra events";
  EXPECT_LE(long_run.allocs, short_run.allocs + 64u)
      << "allocations scaled with events: the per-event hot path allocates "
         "(short run "
      << short_run.allocs << " allocs / " << short_run.events
      << " events; long run " << long_run.allocs << " allocs / "
      << long_run.events << " events)";
}

TEST(EventEngine, CalendarBucketGrowthStaysSublinearInEvents) {
  // The calendar backend does allocate after warm-up — but only when a
  // bucket's occupancy sets a new high-water mark under the Poisson check-in
  // delays, which is amortized storage growth, not per-event work.  Pin the
  // distinction: extra allocations on a 3x horizon stay under 1% of the
  // extra events (measured ~0.65%, decaying over time).
  const RunAllocs short_run =
      run_counting(300.0, EventQueueBackend::kCalendar);
  const RunAllocs long_run = run_counting(900.0, EventQueueBackend::kCalendar);
  ASSERT_GT(long_run.events, short_run.events + 20000u);
  const std::uint64_t extra_allocs = long_run.allocs - short_run.allocs;
  const std::uint64_t extra_events = long_run.events - short_run.events;
  EXPECT_LT(extra_allocs * 100, extra_events)
      << "calendar storage growth is no longer sublinear: " << extra_allocs
      << " extra allocs for " << extra_events << " extra events";
}

// ------------------------------------------------- fig9 golden fingerprints --

std::uint64_t fnv1a_floats(const std::vector<float>& data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  for (std::size_t i = 0; i < data.size() * sizeof(float); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

SimulationConfig fig9_like_config() {
  SimulationConfig cfg;
  cfg.task.name = "next-word-lm";
  cfg.task.client_timeout_s = 240.0;
  cfg.task.max_staleness = 100;
  cfg.task.mode = fl::TrainingMode::kAsync;
  cfg.task.concurrency = 26;
  cfg.task.aggregation_goal = 13;
  cfg.population.seed = 7;
  cfg.population.num_devices = 600;
  cfg.corpus.vocab_size = 64;
  cfg.model.vocab_size = 64;
  cfg.model.embed_dim = 12;
  cfg.model.hidden_dim = 24;
  cfg.model.context = 2;
  cfg.trainer.learning_rate = 0.3f;
  cfg.trainer.batch_size = 32;
  cfg.server_opt.lr = 0.05f;
  cfg.eval_set_size = 150;
  cfg.eval_every_steps = 5;
  cfg.seed = 7;
  cfg.target_loss = 3.35;
  cfg.max_sim_time_s = 4.0e5;
  cfg.max_server_steps = 30;
  return cfg;
}

TEST(EventEngine, DispatchTableReproducesPreRefactorFig9Fingerprints) {
  // Golden constants, identical on heap and calendar: seq assignment — and
  // with it every pop, draw, and model float — is pinned on both backends.
  // The values are what commit b527028 produced for this config with
  // per-entity streams and keyed lazy profiles selected.
  for (const auto backend :
       {EventQueueBackend::kHeap, EventQueueBackend::kCalendar}) {
    SimulationConfig cfg = fig9_like_config();
    cfg.event_queue = backend;
    FlSimulator simulator(cfg);
    const auto r = simulator.run();
    double exec_sum = 0.0;
    for (const auto& p : r.participations) exec_sum += p.exec_time_s;

    EXPECT_DOUBLE_EQ(r.end_time_s, 974.82990111559695);
    EXPECT_EQ(r.server_steps, 30u);
    EXPECT_EQ(r.comm_trips, 390u);
    EXPECT_EQ(r.participations_started, 496u);
    EXPECT_EQ(r.participations.size(), 471u);
    EXPECT_DOUBLE_EQ(r.final_eval_loss, 3.987344005542671);
    EXPECT_DOUBLE_EQ(exec_sum, 37945.333904417028);
    EXPECT_EQ(fnv1a_floats(r.final_model), 0x05924ca8e84c7209ULL);
    EXPECT_EQ(r.events_processed, 38227u);
  }
}

}  // namespace
}  // namespace papaya::sim
