// Million-device scale-out suite: lazy keyed device profiles, the calendar
// event-queue backend, dense stream counters, and streaming metrics must
// each be *observationally equivalent* to the exact, memory-hungry
// representations they stand in for — same profiles at any population size,
// same draws, same pop order, same trajectories — while holding per-device
// state to O(bytes).
//
// The equivalences proved here are what lets bench_macro_population run
// fig-class simulations at 10^6 devices and still claim the results mean
// the same thing as the small-fleet goldens in sim_test.cpp.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fl_simulator.hpp"
#include "sim/population.hpp"
#include "sim/streams.hpp"
#include "util/stats.hpp"

namespace papaya::sim {
namespace {

// ------------------------------------------------- dense stream counters --

TEST(ScaleStreams, DenseCountersMatchMapStreamsBitForBit) {
  // A StreamRng's i-th draw is a pure function of (key, i), so keeping only
  // the u32 counter and rebuilding the generator per call must reproduce
  // the map-of-StreamRng path exactly — interleaved entities, interleaved
  // purposes, multiple draws per call.
  SimStreams dense(42, /*dense_entities=*/64);
  SimStreams mapped(42);
  const StreamPurpose purposes[] = {
      StreamPurpose::kCheckInBackoff, StreamPurpose::kExecTime,
      StreamPurpose::kAvailability, StreamPurpose::kProfileSynthesis};
  for (int round = 0; round < 50; ++round) {
    for (const std::uint64_t entity : {0ULL, 7ULL, 63ULL}) {
      for (const auto purpose : purposes) {
        const double a = dense.with(entity, purpose, [&](auto& g) {
          return g.uniform() + g.normal();  // two draws per call
        });
        const double b = mapped.with(entity, purpose, [&](auto& g) {
          return g.uniform() + g.normal();
        });
        ASSERT_DOUBLE_EQ(a, b) << "entity " << entity << " round " << round;
      }
    }
  }
  // Entities at or past the dense horizon fall back to the map inside the
  // dense-configured instance and still agree.
  EXPECT_DOUBLE_EQ(
      dense.uniform01(64, StreamPurpose::kExecTime),
      mapped.uniform01(64, StreamPurpose::kExecTime));
  EXPECT_DOUBLE_EQ(
      dense.uniform01(SimStreams::kServerEntity, StreamPurpose::kRouting),
      mapped.uniform01(SimStreams::kServerEntity, StreamPurpose::kRouting));
}

// ---------------------------------------------- lazy device materialization --

PopulationConfig keyed_population(std::size_t n) {
  PopulationConfig cfg;
  cfg.num_devices = n;
  cfg.seed = 7;
  return cfg;
}

std::array<std::uint64_t, 5> profile_bits(const DeviceProfile& d) {
  return {d.id, std::bit_cast<std::uint64_t>(d.hardware_factor),
          static_cast<std::uint64_t>(d.num_examples),
          std::bit_cast<std::uint64_t>(d.mean_exec_time_s),
          std::bit_cast<std::uint64_t>(d.dropout_prob)};
}

TEST(ScalePopulation, ProfileIsPureFunctionOfSeedAndIndex) {
  // Device i's profile depends on (seed, i) alone: not on how many devices
  // the population holds, and not on which profiles were read before it.
  // Nothing is stored per device, so the simulator re-reads a profile
  // whenever it needs one, and every trajectory relies on this.
  constexpr std::size_t kChecked = 1000;
  const DevicePopulation small(keyed_population(kChecked));
  const DevicePopulation large(keyed_population(1000000));
  std::vector<std::array<std::uint64_t, 5>> forward;
  for (std::size_t i = 0; i < kChecked; ++i) {
    forward.push_back(profile_bits(small.profile(i)));
  }
  for (std::size_t i = kChecked; i-- > 0;) {
    ASSERT_EQ(profile_bits(small.profile(i)), forward[i]) << "device " << i;
    ASSERT_EQ(profile_bits(large.profile(i)), forward[i]) << "device " << i;
  }
  EXPECT_THROW((void)small.profile(kChecked), std::out_of_range);
}

TEST(ScalePopulation, KeyedSynthesisKeepsPaperDistributionShape) {
  // The Fig. 2 / Sec. 7.4 requirements on the keyed law: exec times
  // spanning two orders of magnitude, and high slowness/example-count
  // correlation.
  const DevicePopulation pop(keyed_population(20000));
  std::vector<double> times, slowness, examples;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    const DeviceProfile d = pop.profile(i);
    times.push_back(d.mean_exec_time_s);
    slowness.push_back(std::log(d.hardware_factor));
    examples.push_back(static_cast<double>(d.num_examples));
  }
  EXPECT_GT(util::percentile(times, 99.0) / util::percentile(times, 1.0),
            100.0);
  EXPECT_GT(util::pearson(slowness, examples), 0.6);
}

// ------------------------------------------------ end-to-end equivalences --

SimulationConfig scale_config() {
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

TEST(ScaleSimulator, O1BackendsReproduceHeapTrajectoryBitForBit) {
  // Same documented total order, same pops, same everything — on a full
  // deployment, not just on the synthetic differential churn in
  // sim_test.cpp.  The amortized-O(1)
  // calendar is held to the heap reference.
  SimulationConfig cfg = scale_config();
  cfg.event_queue = EventQueueBackend::kHeap;
  FlSimulator heap(cfg);
  const auto a = heap.run();
  EXPECT_GT(a.events_processed, 0u);

  cfg.event_queue = EventQueueBackend::kCalendar;
  FlSimulator calendar(cfg);
  const auto b = calendar.run();
  EXPECT_EQ(a.final_model, b.final_model);
  EXPECT_DOUBLE_EQ(a.end_time_s, b.end_time_s);
  EXPECT_EQ(a.server_steps, b.server_steps);
  EXPECT_EQ(a.participations_started, b.participations_started);
  EXPECT_EQ(a.loss_curve.times, b.loss_curve.times);
  EXPECT_EQ(a.events_processed, b.events_processed);
}

TEST(ScaleSimulator, SummaryMatchesFullRecordsExactly) {
  // The streaming summary folds the same records the raw vector retains, so
  // in an uncapped run recomputing it from result.participations must
  // reproduce it bit for bit — counters, moments, and sketches.
  SimulationConfig cfg = scale_config();
  FlSimulator simulator(cfg);
  const auto r = simulator.run();
  ASSERT_GT(r.participations.size(), 0u);

  ParticipationSummary recomputed;
  for (const auto& rec : r.participations) recomputed.observe(rec);
  EXPECT_EQ(r.summary.records, recomputed.records);
  EXPECT_EQ(r.summary.records, r.participations.size());
  EXPECT_EQ(r.summary.dropped, recomputed.dropped);
  EXPECT_EQ(r.summary.applied, recomputed.applied);
  EXPECT_EQ(r.summary.exec_time_s.count(), recomputed.exec_time_s.count());
  EXPECT_DOUBLE_EQ(r.summary.exec_time_s.mean(),
                   recomputed.exec_time_s.mean());
  EXPECT_DOUBLE_EQ(r.summary.round_latency_s.mean(),
                   recomputed.round_latency_s.mean());
  EXPECT_DOUBLE_EQ(r.summary.exec_p95.value(), recomputed.exec_p95.value());
  EXPECT_DOUBLE_EQ(r.summary.latency_p50.value(),
                   recomputed.latency_p50.value());
}

TEST(ScaleSimulator, MetricsCapsBoundMemoryWithoutPerturbingTrajectory) {
  // Caps are observational: the reservoir draws from a dedicated purpose
  // (kMetricsSampling) and the series decimation is drawless, so the
  // trajectory — and the exact streaming summary — must not move.
  SimulationConfig cfg = scale_config();
  cfg.record_utilization = true;
  FlSimulator uncapped(cfg);
  cfg.metrics.max_participation_records = 8;
  cfg.metrics.max_timeseries_points = 16;
  FlSimulator capped(cfg);

  const auto a = uncapped.run();
  const auto b = capped.run();
  EXPECT_EQ(a.final_model, b.final_model);
  EXPECT_DOUBLE_EQ(a.end_time_s, b.end_time_s);
  EXPECT_EQ(a.server_steps, b.server_steps);

  EXPECT_GT(a.participations.size(), 8u);
  EXPECT_EQ(b.participations.size(), 8u);  // reservoir holds exactly cap
  EXPECT_LE(b.loss_curve.size(), 16u);
  EXPECT_LE(b.active_clients.size(), 16u);
  // Every sampled record is one of the full run's records (same identity
  // and timing — the reservoir picks, it does not alter).
  for (const auto& rec : b.participations) {
    bool found = false;
    for (const auto& full : a.participations) {
      if (full.client_id == rec.client_id &&
          full.start_time == rec.start_time) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "sampled record not present in the full run";
  }
  // The summary stays exact under the cap.
  EXPECT_EQ(a.summary.records, b.summary.records);
  EXPECT_EQ(a.summary.applied, b.summary.applied);
  EXPECT_DOUBLE_EQ(a.summary.exec_time_s.mean(), b.summary.exec_time_s.mean());
  EXPECT_DOUBLE_EQ(a.summary.exec_p95.value(), b.summary.exec_p95.value());
}

TEST(ScaleSimulator, RecordingOffStillFeedsSummary) {
  SimulationConfig cfg = scale_config();
  cfg.record_participations = false;
  FlSimulator simulator(cfg);
  const auto r = simulator.run();
  EXPECT_TRUE(r.participations.empty());
  EXPECT_GT(r.summary.records, 0u);
  EXPECT_GT(r.summary.applied, 0u);
}

TEST(ScaleSimulator, FiftyThousandDeviceLazyCalendarSmoke) {
  // The scale recipe end to end, shrunk to CI size: calendar queue, dense
  // stream counters, streaming metrics only.  10^6-device behaviour is the same code with bigger numbers
  // (bench_macro_population).
  SimulationConfig cfg = scale_config();
  cfg.population.num_devices = 50000;
  cfg.event_queue = EventQueueBackend::kCalendar;
  cfg.record_participations = false;
  cfg.metrics.max_timeseries_points = 64;
  cfg.max_server_steps = 5;
  cfg.eval_every_steps = 5;
  FlSimulator simulator(cfg);
  const auto r = simulator.run();
  EXPECT_EQ(r.server_steps, 5u);
  EXPECT_GT(r.summary.records, 0u);
  EXPECT_GT(r.events_processed, 0u);
  EXPECT_TRUE(r.participations.empty());
  EXPECT_LE(r.loss_curve.size(), 64u);
  EXPECT_GT(r.end_time_s, 0.0);
}

}  // namespace
}  // namespace papaya::sim
