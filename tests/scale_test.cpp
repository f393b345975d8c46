// Million-device scale-out suite: lazy keyed device materialization, the
// calendar event-queue backend, dense stream counters, and streaming
// metrics must each be *observationally equivalent* to the exact,
// memory-hungry representations they replace — same draws, same pop order,
// same trajectories — while holding per-device state to O(bytes).
//
// The equivalences proved here are what lets bench_macro_population run
// fig-class simulations at 10^6 devices and still claim the results mean
// the same thing as the small-fleet goldens in sim_test.cpp.

#include <gtest/gtest.h>

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
  SimStreams dense(42, RngStreamMode::kPerEntity, /*dense_entities=*/64);
  SimStreams mapped(42, RngStreamMode::kPerEntity);
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

PopulationConfig keyed_population(std::size_t n, ProfileSynthesis synthesis) {
  PopulationConfig cfg;
  cfg.num_devices = n;
  cfg.seed = 7;
  cfg.synthesis = synthesis;
  return cfg;
}

TEST(ScalePopulation, LazyProfilesMatchKeyedEagerProfiles) {
  const DevicePopulation eager(
      keyed_population(500, ProfileSynthesis::kKeyedEager));
  const DevicePopulation lazy(
      keyed_population(500, ProfileSynthesis::kKeyedLazy));
  ASSERT_EQ(eager.size(), lazy.size());
  EXPECT_FALSE(eager.lazy());
  EXPECT_TRUE(lazy.lazy());
  // Access out of order: each profile is a pure function of (seed, i).
  for (std::size_t i = lazy.size(); i-- > 0;) {
    const DeviceProfile a = eager.profile(i);
    const DeviceProfile b = lazy.profile(i);
    EXPECT_EQ(a.id, b.id);
    EXPECT_DOUBLE_EQ(a.mean_exec_time_s, b.mean_exec_time_s);
    EXPECT_DOUBLE_EQ(a.hardware_factor, b.hardware_factor);
    EXPECT_EQ(a.num_examples, b.num_examples);
    EXPECT_DOUBLE_EQ(a.dropout_prob, b.dropout_prob);
  }
  // Repeated access is idempotent (no hidden draw-counter state).
  EXPECT_DOUBLE_EQ(lazy.profile(3).mean_exec_time_s,
                   lazy.profile(3).mean_exec_time_s);
}

TEST(ScalePopulation, LazyModeRefusesMaterializedAccessors) {
  const DevicePopulation lazy(
      keyed_population(10, ProfileSynthesis::kKeyedLazy));
  EXPECT_THROW((void)lazy.device(0), std::logic_error);
  EXPECT_THROW((void)lazy.devices(), std::logic_error);
  // profile() remains the mode-independent accessor.
  EXPECT_GT(lazy.profile(0).mean_exec_time_s, 0.0);
}

TEST(ScalePopulation, KeyedSynthesisKeepsPaperDistributionShape) {
  // The keyed draws are a different sequence from the legacy sequential
  // synthesis, so re-verify the Fig. 2 / Sec. 7.4 requirements hold for the
  // keyed law too: exec times spanning two orders of magnitude, and high
  // slowness/example-count correlation.
  const DevicePopulation pop(
      keyed_population(20000, ProfileSynthesis::kKeyedLazy));
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
  cfg.trainer.compute_losses = false;
  cfg.max_server_steps = 20;
  cfg.eval_every_steps = 10;
  cfg.seed = 5;
  return cfg;
}

TEST(ScaleSimulator, LazyPopulationReproducesEagerTrajectoryBitForBit) {
  // The acceptance bar for lazy materialization: a full simulated
  // deployment on the lazy population is indistinguishable from the same
  // run on the eagerly materialized keyed population — every profile read
  // resolves to the same values, so every event lands at the same time.
  SimulationConfig cfg = scale_config();
  cfg.population.synthesis = ProfileSynthesis::kKeyedEager;
  FlSimulator eager(cfg);
  cfg.population.synthesis = ProfileSynthesis::kKeyedLazy;
  FlSimulator lazy(cfg);

  const auto a = eager.run();
  const auto b = lazy.run();
  EXPECT_EQ(a.final_model, b.final_model);
  EXPECT_DOUBLE_EQ(a.end_time_s, b.end_time_s);
  EXPECT_EQ(a.server_steps, b.server_steps);
  EXPECT_EQ(a.participations_started, b.participations_started);
  ASSERT_EQ(a.participations.size(), b.participations.size());
  for (std::size_t i = 0; i < a.participations.size(); ++i) {
    EXPECT_EQ(a.participations[i].client_id, b.participations[i].client_id);
    EXPECT_DOUBLE_EQ(a.participations[i].start_time,
                     b.participations[i].start_time);
    EXPECT_DOUBLE_EQ(a.participations[i].exec_time_s,
                     b.participations[i].exec_time_s);
  }
  EXPECT_EQ(a.loss_curve.times, b.loss_curve.times);
  EXPECT_EQ(a.loss_curve.values, b.loss_curve.values);
}

TEST(ScaleSimulator, O1BackendsReproduceHeapTrajectoryBitForBit) {
  // Same documented total order, same pops, same everything — on a full
  // deployment including the legacy-stream golden config, not just on the
  // synthetic differential churn in sim_test.cpp.  The amortized-O(1)
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
  // The scale recipe end to end, shrunk to CI size: lazy keyed population,
  // calendar queue, per-entity dense stream counters, streaming metrics
  // only.  10^6-device behaviour is the same code with bigger numbers
  // (bench_macro_population).
  SimulationConfig cfg = scale_config();
  cfg.population.num_devices = 50000;
  cfg.population.synthesis = ProfileSynthesis::kKeyedLazy;
  cfg.event_queue = EventQueueBackend::kCalendar;
  cfg.rng_streams = RngStreamMode::kPerEntity;
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
