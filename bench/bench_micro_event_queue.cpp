// Microbenchmarks for the discrete-event engine hot path (ISSUE 10): the
// steady-state schedule→pop→dispatch cycle that a 10M-device population
// executes hundreds of millions of times per run.
//
// BM_EventSchedule measures the POD event record (32 bytes, zero-alloc:
// tests/event_engine_test.cpp proves the allocation count) on each backend.
//
// The workload mirrors the simulator's check-in/backoff churn: constant
// pending size (512), deterministic cyclic delays of 1.0–4.75 s, every pop
// immediately rescheduling its event.  Constant occupancy keeps the
// calendar between its resize thresholds, so the numbers reflect the
// per-event cost, not resize amortization.  The heap rows are the
// reference the calendar is measured against.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "sim/event_queue.hpp"

namespace {

using namespace papaya;
using sim::EventKind;
using sim::EventQueue;
using sim::EventQueueBackend;

constexpr std::uint32_t kPending = 512;
constexpr int kWarmupPops = 60000;

struct ReschedulerCtx {
  EventQueue* q = nullptr;
  std::uint64_t pops = 0;
};

void reschedule_dispatch(void* ctx, EventKind kind, std::uint32_t entity,
                         std::uint32_t payload, double) {
  auto* c = static_cast<ReschedulerCtx*>(ctx);
  const double delay = 1.0 + 0.25 * static_cast<double>(c->pops % 16);
  c->q->schedule_event_in(delay, entity, kind, entity, payload);
  ++c->pops;
}

void seed_queue_pod(EventQueue& q) {
  for (std::uint32_t i = 0; i < kPending; ++i) {
    q.schedule_event_at(0.01 * static_cast<double>(i), i,
                        static_cast<EventKind>(1 + i % 5), i, i);
  }
}

/// Steady-state POD cycle: pop one event, dispatch through the table,
/// reschedule it.  One item == one full event lifetime.
void BM_EventSchedule(benchmark::State& state) {
  const auto backend = static_cast<EventQueueBackend>(state.range(0));
  ReschedulerCtx ctx;
  EventQueue q(&reschedule_dispatch, &ctx, backend);
  ctx.q = &q;
  seed_queue_pod(q);
  // Warm past the calendar's final ring width so bucket capacities reach
  // their periodic high-water marks.
  for (int i = 0; i < kWarmupPops; ++i) q.step();
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.step());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventSchedule)
    ->Arg(static_cast<int>(EventQueueBackend::kHeap))
    ->Arg(static_cast<int>(EventQueueBackend::kCalendar))
    ->Unit(benchmark::kNanosecond);

/// Cold bulk load: push kPending fresh events into an empty queue and drain
/// them — the shape of simulator start-up (every device's first check-in)
/// and of calendar resize storms.
void BM_EventBulkLoadDrain(benchmark::State& state) {
  const auto backend = static_cast<EventQueueBackend>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    EventQueue q([](void*, EventKind, std::uint32_t, std::uint32_t, double) {},
                 nullptr, backend);
    state.ResumeTiming();
    seed_queue_pod(q);
    while (q.step()) {
    }
  }
  state.SetItemsProcessed(state.iterations() * kPending);
}
BENCHMARK(BM_EventBulkLoadDrain)
    ->Arg(static_cast<int>(EventQueueBackend::kHeap))
    ->Arg(static_cast<int>(EventQueueBackend::kCalendar))
    ->Unit(benchmark::kMicrosecond);

}  // namespace
