// Tests for the pluggable aggregation-strategy layer: the UpdateView wire
// parser, the AggStats counters, the decide_strategy() picker table, the
// three fold backends (locked / morsel / striped), exactness across
// mid-stream strategy switches (the conservation hammer), registration-time
// validation of TaskConfig::aggregator_shards and ::aggregation_strategy,
// simulator-level strategy equivalence, and the skewed-update-size
// graceful-degradation sweep.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "fl/agg_strategy.hpp"
#include "fl/aggregator.hpp"
#include "fl/coordinator.hpp"
#include "fl/model_update.hpp"
#include "fl/parallel_agg.hpp"
#include "fl/sharded_agg.hpp"
#include "sim/fl_simulator.hpp"

namespace papaya::fl {
namespace {

constexpr AggStrategy kAllForced[] = {AggStrategy::kLocked,
                                      AggStrategy::kMorsel,
                                      AggStrategy::kStriped};

util::Bytes make_update(std::uint64_t client, std::size_t size, float value,
                        std::size_t examples = 1) {
  ModelUpdate u;
  u.client_id = client;
  u.num_examples = examples;
  u.delta.assign(size, value);
  return u.serialize();
}

/// Arbitrary (not exact-in-float) deterministic delta, for bit-identity
/// checks: per-element values vary so permuted fold orders cannot hide.
util::Bytes make_varied_update(std::uint64_t client, std::size_t size) {
  ModelUpdate u;
  u.client_id = client;
  u.num_examples = 1 + client % 5;
  u.delta.resize(size);
  for (std::size_t i = 0; i < size; ++i) {
    const std::uint32_t h =
        static_cast<std::uint32_t>(i * 2654435761u + client * 40503u);
    u.delta[i] = 0.001f * static_cast<float>(h % 2000) - 1.0f;
  }
  return u.serialize();
}

// ------------------------------------------------------------- UpdateView --

TEST(UpdateView, ParsesWireFormatBitExactly) {
  ModelUpdate u;
  u.client_id = 9;
  u.initial_version = 3;
  u.num_examples = 7;
  u.delta = {1.5f, -2.25f, 0.0f, -0.0f, 3.14159f};
  const util::Bytes bytes = u.serialize();
  const auto view = UpdateView::parse(bytes, u.delta.size());
  ASSERT_TRUE(view.has_value());
  ASSERT_EQ(view->count, u.delta.size());
  for (std::size_t i = 0; i < u.delta.size(); ++i) {
    std::uint32_t expect_bits, got_bits;
    std::memcpy(&expect_bits, &u.delta[i], 4);
    const float got = view->at(i);
    std::memcpy(&got_bits, &got, 4);
    EXPECT_EQ(got_bits, expect_bits) << "element " << i;
  }
  std::vector<float> copied(view->count);
  view->copy_to(copied);
  EXPECT_EQ(copied, u.delta);
}

TEST(UpdateView, RejectsSizeMismatchAndTruncation) {
  const util::Bytes bytes = make_update(1, 8, 1.0f);
  EXPECT_TRUE(UpdateView::parse(bytes, 8).has_value());
  EXPECT_FALSE(UpdateView::parse(bytes, 7).has_value());  // wrong model size
  EXPECT_FALSE(UpdateView::parse(bytes, 9).has_value());
  util::Bytes truncated(bytes.begin(), bytes.begin() + 40);  // mid-payload
  EXPECT_FALSE(UpdateView::parse(truncated, 8).has_value());
  util::Bytes header_only(bytes.begin(), bytes.begin() + 16);
  EXPECT_FALSE(UpdateView::parse(header_only, 8).has_value());
}

// -------------------------------------------------------- Strategy naming --

TEST(AggStrategyEnum, NamesRoundTrip) {
  for (AggStrategy s : {AggStrategy::kAuto, AggStrategy::kLocked,
                        AggStrategy::kMorsel, AggStrategy::kStriped}) {
    const auto parsed = parse_agg_strategy(to_string(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(parse_agg_strategy("mutex").has_value());
  EXPECT_TRUE(valid_agg_strategy(AggStrategy::kAuto));
  EXPECT_FALSE(valid_agg_strategy(static_cast<AggStrategy>(42)));
}

// ----------------------------------------------------------- Picker table --

TEST(DecideStrategy, FollowsDecisionTable) {
  const AggTuning tuning;  // small-update threshold: 16 KiB payload
  AggStatsSnapshot window;

  // No traffic observed: keep whatever is running.
  EXPECT_EQ(decide_strategy(window, AggStrategy::kLocked, tuning, 4),
            AggStrategy::kLocked);
  EXPECT_EQ(decide_strategy(window, AggStrategy::kMorsel, tuning, 4),
            AggStrategy::kMorsel);

  // Small updates (payload <= threshold) with several workers: the striped
  // atomic fold removes the per-fold lock traffic they contend on.
  window.enqueued = 10;
  window.enqueued_bytes = 10 * (32 + 1024);  // 1 KiB payloads
  EXPECT_EQ(decide_strategy(window, AggStrategy::kLocked, tuning, 4),
            AggStrategy::kStriped);

  // A single-worker pool has no contention to avoid: per-element atomics
  // are pure overhead, so morsel's lock-free local fold wins every shape.
  EXPECT_EQ(decide_strategy(window, AggStrategy::kLocked, tuning, 1),
            AggStrategy::kMorsel);

  // Large updates: morsel-driven thread-local pre-aggregation.
  window.enqueued_bytes = 10 * (32 + (64u << 10));  // 64 KiB payloads
  EXPECT_EQ(decide_strategy(window, AggStrategy::kStriped, tuning, 4),
            AggStrategy::kMorsel);

  // Exactly at the threshold counts as small.
  window.enqueued = 1;
  window.enqueued_bytes = 32 + (16u << 10);
  EXPECT_EQ(decide_strategy(window, AggStrategy::kLocked, tuning, 4),
            AggStrategy::kStriped);
}

// ---------------------------------------------- Bit-identity (one worker) --

TEST(AggStrategySuite, SingleWorkerPoolsAreBitIdenticalAcrossStrategies) {
  // With one worker every strategy folds the same updates, in the same FIFO
  // order, with the identical per-element expression — so the reduced
  // buffers must match bit-for-bit, arbitrary values included.
  constexpr std::size_t kModel = 257;  // odd, exercises non-aligned tails
  std::vector<ParallelAggregator::Reduced> results;
  for (const AggStrategy strategy : kAllForced) {
    ParallelAggregator agg(kModel, /*num_threads=*/1, /*num_intermediates=*/1,
                           /*clip_norm=*/0.0f, /*drain_batch=*/3, strategy);
    for (std::uint64_t c = 0; c < 32; ++c) {
      agg.enqueue(make_varied_update(c, kModel), 0.25 + 0.5 * (c % 4));
    }
    results.push_back(agg.reduce_and_reset());
  }
  for (std::size_t s = 1; s < results.size(); ++s) {
    EXPECT_EQ(results[0].mean_delta, results[s].mean_delta)
        << "strategy " << to_string(kAllForced[s]) << " diverged from locked";
    EXPECT_EQ(results[0].weight_sum, results[s].weight_sum);
    EXPECT_EQ(results[0].count, results[s].count);
  }
}

TEST(AggStrategySuite, ClippedFoldsAreBitIdenticalAcrossStrategies) {
  constexpr std::size_t kModel = 96;
  std::vector<ParallelAggregator::Reduced> results;
  for (const AggStrategy strategy : kAllForced) {
    ParallelAggregator agg(kModel, 1, 1, /*clip_norm=*/0.5f,
                           /*drain_batch=*/1, strategy);
    for (std::uint64_t c = 0; c < 12; ++c) {
      agg.enqueue(make_varied_update(c, kModel), 1.0 + c);
    }
    results.push_back(agg.reduce_and_reset());
  }
  for (std::size_t s = 1; s < results.size(); ++s) {
    EXPECT_EQ(results[0].mean_delta, results[s].mean_delta)
        << "strategy " << to_string(kAllForced[s]) << " diverged from locked";
  }
}

// --------------------------------------- Conservation (mid-stream switch) --

TEST(AggStrategySuite, DeterministicSwitchMidBufferConservesExactly) {
  // Fold one buffer's updates under three different strategies — drain
  // between groups so each group's backend is fully deterministic — then
  // reduce once.  The merge must account for every update exactly.
  constexpr std::size_t kModel = 64;
  constexpr std::size_t kPerGroup = 20;
  ParallelAggregator agg(kModel, /*num_threads=*/2, /*num_intermediates=*/2,
                         0.0f, /*drain_batch=*/4, AggStrategy::kLocked);
  std::uint64_t client = 0;
  double expected_weight = 0.0;
  for (const AggStrategy strategy : kAllForced) {
    agg.force_strategy(strategy);
    for (std::size_t i = 0; i < kPerGroup; ++i, ++client) {
      // Unit deltas and integer weights: sums stay exact in float under any
      // fold interleaving.
      agg.enqueue(make_update(client, kModel, 1.0f), 1.0 + client % 3);
      expected_weight += 1.0 + client % 3;
    }
    agg.drain();  // group fully folded under `strategy`
  }
  // Raw sums (not the normalized mean): with unit deltas and small integer
  // weights every partial sum is exact in float, so the assertion is exact
  // under any fold order or split across accumulators.
  const auto reduced = agg.reduce_and_reset_sums();
  EXPECT_EQ(reduced.count, 3 * kPerGroup);
  EXPECT_DOUBLE_EQ(reduced.weight_sum, expected_weight);
  for (const float v : reduced.mean_delta) {
    EXPECT_EQ(v, static_cast<float>(expected_weight));
  }
  // Nothing left behind: a second reduce sees an empty buffer.
  const auto empty = agg.reduce_and_reset_sums();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_DOUBLE_EQ(empty.weight_sum, 0.0);
}

TEST(AggStrategySuite, RacingSwitchHammerConservesUnderConcurrency) {
  // The adversarial variant: enqueue from two producer threads while a
  // third cycles force_strategy() as fast as it can.  Wherever each switch
  // lands — mid-run, mid-buffer, between enqueue and drain — every update
  // must fold into exactly one live accumulator and merge at the reduce.
  constexpr std::size_t kModel = 48;
  constexpr std::size_t kPerProducer = 300;
  constexpr int kBuffers = 4;
  ParallelAggregator agg(kModel, /*num_threads=*/3, /*num_intermediates=*/2,
                         0.0f, /*drain_batch=*/5, AggStrategy::kLocked);
  for (int buffer = 0; buffer < kBuffers; ++buffer) {
    std::atomic<bool> stop{false};
    std::thread flipper([&] {
      std::size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        agg.force_strategy(kAllForced[i++ % 3]);
        std::this_thread::yield();
      }
    });
    std::thread producers[2];
    for (int p = 0; p < 2; ++p) {
      producers[p] = std::thread([&, p] {
        for (std::size_t i = 0; i < kPerProducer; ++i) {
          agg.enqueue(make_update(p * kPerProducer + i, kModel, 1.0f), 1.0);
        }
      });
    }
    for (auto& t : producers) t.join();
    stop.store(true, std::memory_order_relaxed);
    flipper.join();
    const auto reduced = agg.reduce_and_reset_sums();
    EXPECT_EQ(reduced.count, 2 * kPerProducer) << "buffer " << buffer;
    EXPECT_DOUBLE_EQ(reduced.weight_sum, 2.0 * kPerProducer);
    for (const float v : reduced.mean_delta) {
      EXPECT_EQ(v, static_cast<float>(2 * kPerProducer));
    }
  }
}

TEST(AggStrategySuite, AutoPoolConservesUnderConcurrentReduce) {
  // The PR-2 conservation suite's shape, under kAuto: enqueue concurrently
  // with reduces; across all reduces every update is counted exactly once.
  constexpr std::size_t kModel = 32;
  constexpr std::size_t kUpdates = 400;
  ParallelAggregator agg(kModel, 3, 3, 0.0f, 2, AggStrategy::kAuto);
  std::thread producer([&] {
    for (std::size_t i = 0; i < kUpdates; ++i) {
      agg.enqueue(make_update(i, kModel, 1.0f), 1.0);
    }
  });
  double weight = 0.0;
  std::size_t count = 0;
  std::vector<double> sums(kModel, 0.0);
  for (int r = 0; r < 5; ++r) {
    const auto part = agg.reduce_and_reset_sums();
    weight += part.weight_sum;
    count += part.count;
    for (std::size_t i = 0; i < kModel; ++i) sums[i] += part.mean_delta[i];
  }
  producer.join();
  const auto last = agg.reduce_and_reset_sums();
  weight += last.weight_sum;
  count += last.count;
  for (std::size_t i = 0; i < kModel; ++i) sums[i] += last.mean_delta[i];
  EXPECT_EQ(count, kUpdates);
  EXPECT_DOUBLE_EQ(weight, static_cast<double>(kUpdates));
  for (const double v : sums) EXPECT_DOUBLE_EQ(v, static_cast<double>(kUpdates));
}

// ------------------------------------------------------------ Morsel paths --

TEST(AggStrategySuite, MorselSpillEveryConservesAndCountsSpills) {
  constexpr std::size_t kModel = 40;
  AggTuning tuning;
  tuning.morsel_spill_every = 3;  // force frequent local -> global flushes
  ParallelAggregator agg(kModel, 2, 2, 0.0f, 1, AggStrategy::kMorsel, tuning);
  constexpr std::size_t kUpdates = 50;
  for (std::size_t i = 0; i < kUpdates; ++i) {
    agg.enqueue(make_update(i, kModel, 1.0f), 1.0);
  }
  const auto reduced = agg.reduce_and_reset_sums();
  EXPECT_EQ(reduced.count, kUpdates);
  EXPECT_DOUBLE_EQ(reduced.weight_sum, static_cast<double>(kUpdates));
  for (const float v : reduced.mean_delta) {
    EXPECT_EQ(v, static_cast<float>(kUpdates));
  }
  EXPECT_GT(agg.stats_snapshot().spills, 0u);
}

TEST(AggStrategySuite, MorselZeroLocalBudgetOverflowsToGlobalPartitions) {
  // A zero local budget disables every thread-local buffer: all folds take
  // the locked-overflow path.  Results must be unaffected.
  constexpr std::size_t kModel = 40;
  AggTuning tuning;
  tuning.morsel_local_budget_bytes = 0;
  ParallelAggregator agg(kModel, 2, 2, 0.0f, 1, AggStrategy::kMorsel, tuning);
  constexpr std::size_t kUpdates = 30;
  for (std::size_t i = 0; i < kUpdates; ++i) {
    agg.enqueue(make_update(i, kModel, 1.0f), 1.0);
  }
  const auto reduced = agg.reduce_and_reset_sums();
  EXPECT_EQ(reduced.count, kUpdates);
  for (const float v : reduced.mean_delta) {
    EXPECT_EQ(v, static_cast<float>(kUpdates));
  }
  EXPECT_GT(agg.stats_snapshot().lock_acquires, 0u);
}

TEST(AggStrategySuite, MalformedUpdatesDropUnderEveryStrategy) {
  constexpr std::size_t kModel = 16;
  for (const AggStrategy strategy : kAllForced) {
    ParallelAggregator agg(kModel, 1, 1, 0.0f, 1, strategy);
    agg.enqueue(make_update(0, kModel, 1.0f), 1.0);
    agg.enqueue(make_update(1, kModel + 3, 1.0f), 1.0);  // wrong size: drop
    agg.enqueue(make_update(2, kModel, 1.0f), 1.0);
    const auto reduced = agg.reduce_and_reset();
    EXPECT_EQ(reduced.count, 2u) << to_string(strategy);
    EXPECT_EQ(agg.stats_snapshot().dropped, 1u) << to_string(strategy);
  }
}

// ----------------------------------------------------- Adaptive end-to-end --

TEST(AggStrategySuite, AutoPicksStripedForSmallAndMorselForLargeUpdates) {
  {
    // Striped needs both signals: small payloads AND a multi-worker pool
    // (with one worker there is no lock contention to avoid).
    ParallelAggregator small(64, 2, 2, 0.0f, 1, AggStrategy::kAuto);
    EXPECT_EQ(small.configured_strategy(), AggStrategy::kAuto);
    EXPECT_EQ(small.active_strategy(), AggStrategy::kLocked);  // startup
    small.enqueue(make_update(0, 64, 1.0f), 1.0);
    small.drain();
    EXPECT_EQ(small.active_strategy(), AggStrategy::kStriped);
  }
  {
    // Same small updates, single worker: morsel's lock-free local fold.
    ParallelAggregator small(64, 1, 1, 0.0f, 1, AggStrategy::kAuto);
    small.enqueue(make_update(0, 64, 1.0f), 1.0);
    small.drain();
    EXPECT_EQ(small.active_strategy(), AggStrategy::kMorsel);
  }
  {
    // 32 Ki floats = 128 KiB payload, far above the 16 KiB small-update bar.
    ParallelAggregator large(32768, 1, 1, 0.0f, 1, AggStrategy::kAuto);
    large.enqueue(make_update(0, 32768, 1.0f), 1.0);
    large.drain();
    EXPECT_EQ(large.active_strategy(), AggStrategy::kMorsel);
  }
}

TEST(AggStrategySuite, StatsCountersTrackTraffic) {
  constexpr std::size_t kModel = 24;
  ParallelAggregator agg(kModel, 1, 1, 0.0f, 1, AggStrategy::kLocked);
  const util::Bytes update = make_update(0, kModel, 1.0f);
  const std::size_t update_bytes = update.size();
  for (int i = 0; i < 6; ++i) agg.enqueue(update, 1.0);
  agg.drain();
  const auto reduced = agg.reduce_and_reset();
  EXPECT_EQ(reduced.count, 6u);
  const AggStatsSnapshot stats = agg.stats_snapshot();
  EXPECT_EQ(stats.enqueued, 6u);
  EXPECT_EQ(stats.enqueued_bytes, 6 * update_bytes);
  EXPECT_EQ(stats.folded, 6u);
  EXPECT_EQ(stats.reduces, 1u);
  EXPECT_GE(stats.max_queue_depth, 1u);
  EXPECT_DOUBLE_EQ(stats.avg_update_bytes(),
                   static_cast<double>(update_bytes));
}

// ------------------------------------------------------ Sharded equivalence --

TEST(AggStrategySuite, ShardedReduceBitIdenticalAcrossStrategiesAndSwitches) {
  // Acceptance criterion: the cross-shard reduce is bit-identical regardless
  // of strategy (single-threaded shards fold in arrival order) — including a
  // run whose shards switched strategy mid-stream between drains.
  auto run = [](AggStrategy strategy, bool flip_midway,
                bool exact_values) -> ParallelAggregator::Reduced {
    ShardedAggregator::Config cfg;
    cfg.model_size = 128;
    cfg.num_shards = 4;
    cfg.threads_per_shard = 1;
    cfg.strategy = strategy;
    ShardedAggregator sharded(cfg);
    for (std::uint64_t c = 0; c < 64; ++c) {
      if (flip_midway && c == 32) {
        sharded.drain();  // make the switch point deterministic
        sharded.force_strategy(AggStrategy::kStriped);
      }
      sharded.enqueue(c,
                      exact_values ? make_update(c, 128, 1.0f + c % 4)
                                   : make_varied_update(c, 128),
                      1.0 + c % 3);
    }
    return sharded.reduce_and_reset();
  };
  // Pure single-strategy runs: arbitrary values, bit-identical — each
  // shard's single worker performs the identical fold chain.
  const auto locked = run(AggStrategy::kLocked, false, false);
  for (const AggStrategy strategy :
       {AggStrategy::kMorsel, AggStrategy::kStriped, AggStrategy::kAuto}) {
    const auto other = run(strategy, false, false);
    EXPECT_EQ(locked.mean_delta, other.mean_delta) << to_string(strategy);
    EXPECT_EQ(locked.weight_sum, other.weight_sum);
    EXPECT_EQ(locked.count, other.count);
  }
  // Mid-stream switch: folds split across two accumulators, which reorders
  // the float additions (s_k + (x1 + x2) vs ((s_k + x1) + x2)) — so the
  // bit-identity claim is made where it is well-defined, on exact-in-float
  // values, where any association of the sum has one representation.
  const auto exact_locked = run(AggStrategy::kLocked, false, true);
  const auto switched = run(AggStrategy::kLocked, true, true);
  EXPECT_EQ(exact_locked.mean_delta, switched.mean_delta)
      << "mid-stream locked->striped switch perturbed the reduce";
  EXPECT_EQ(exact_locked.weight_sum, switched.weight_sum);
  EXPECT_EQ(exact_locked.count, switched.count);
}

// ------------------------------------------------ Registration validation --

TEST(AggStrategyValidation, AggregatorNormalizesZeroShardsAtRegistration) {
  // Satellite: 0 must never reach the ring modulo, even when assign_task is
  // called directly (bypassing Coordinator placement).
  Aggregator agg("a1", 1);
  TaskConfig config;
  config.name = "t";
  config.model_size = 8;
  config.aggregator_shards = 0;
  agg.assign_task(config, std::vector<float>(8, 0.0f), {});
  EXPECT_EQ(agg.task_shards("t"), 1u);
  EXPECT_EQ(agg.task_strategy("t"), AggStrategy::kAuto);
}

TEST(AggStrategyValidation, AggregatorRejectsOutOfEnumStrategy) {
  Aggregator agg("a1", 1);
  TaskConfig config;
  config.name = "t";
  config.model_size = 8;
  config.aggregation_strategy = static_cast<AggStrategy>(42);
  EXPECT_THROW(agg.assign_task(config, std::vector<float>(8, 0.0f), {}),
               std::invalid_argument);
}

TEST(AggStrategyValidation, CoordinatorRejectsAtSubmitAndClampsAtAdopt) {
  Coordinator coordinator(7);
  Aggregator agg("a1", 1);
  coordinator.register_aggregator(agg, 0.0);
  TaskConfig config;
  config.name = "t";
  config.model_size = 8;
  config.aggregation_strategy = static_cast<AggStrategy>(200);
  EXPECT_THROW(
      coordinator.submit_task(config, std::vector<float>(8, 0.0f), {}),
      std::invalid_argument);
  // Adoption is the recovery path: garbage clamps to kAuto instead of
  // refusing to recover the task.
  coordinator.adopt_task(config, {});
  EXPECT_EQ(coordinator.task_strategy("t"), AggStrategy::kAuto);
  // Valid strategies survive placement verbatim.
  config.aggregation_strategy = AggStrategy::kMorsel;
  config.name = "t2";
  coordinator.submit_task(config, std::vector<float>(8, 0.0f), {});
  EXPECT_EQ(coordinator.task_strategy("t2"), AggStrategy::kMorsel);
  EXPECT_EQ(agg.task_strategy("t2"), AggStrategy::kMorsel);
}

// ------------------------------------------------- Simulator equivalence --

sim::SimulationConfig sim_config() {
  sim::SimulationConfig cfg;
  cfg.task.name = "lm";
  cfg.task.mode = TrainingMode::kAsync;
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

TEST(AggStrategySim, StrategyDoesNotPerturbTraining) {
  // The simulator's aggregation pools are single-threaded, so every fold
  // backend performs the identical float operations in arrival order: the
  // trained model must be bit-identical under any strategy, adaptive
  // included.
  sim::SimulationConfig cfg = sim_config();
  cfg.task.aggregator_shards = 2;
  cfg.task.aggregation_strategy = AggStrategy::kLocked;
  sim::FlSimulator locked(cfg);
  const auto golden = locked.run().final_model;
  for (const AggStrategy strategy :
       {AggStrategy::kMorsel, AggStrategy::kStriped, AggStrategy::kAuto}) {
    cfg.task.aggregation_strategy = strategy;
    sim::FlSimulator other(cfg);
    EXPECT_EQ(golden, other.run().final_model) << to_string(strategy);
  }
}

// --------------------------------------------- Skewed-size degradation --

TEST(AggStrategySweep, AutoDegradesGracefullyOnSkewedUpdateSizes) {
  // Each forced strategy has an adversarial shape (striped on huge updates,
  // locked on tiny contended ones).  The adaptive picker must never be
  // badly wrong on either extreme: on each shape, auto stays within a
  // generous catastrophe bound of the locked baseline.  The strict 10%
  // gate for committed numbers lives in BM_AggregationSkew via
  // scripts/bench.sh --compare; a tight timing assertion here would flake
  // on loaded single-core CI runners, violating tier-1 stability.
  // PAPAYA_STRICT_SKEW=1 opts into the 1.10x bound locally.
  const bool strict = std::getenv("PAPAYA_STRICT_SKEW") != nullptr;
  const double bound = strict ? 1.10 : 3.0;
  struct Shape {
    const char* name;
    std::size_t model_size;
    std::size_t updates;
  };
  const Shape shapes[] = {{"small", 256, 192}, {"large", 65536, 24}};
  for (const Shape& shape : shapes) {
    auto time_strategy = [&](AggStrategy strategy) {
      ShardedAggregator::Config cfg;
      cfg.model_size = shape.model_size;
      cfg.num_shards = 2;
      cfg.threads_per_shard = 1;
      cfg.strategy = strategy;
      ShardedAggregator sharded(cfg);
      // Warm-up buffer so auto's picker has a window before timing starts.
      for (std::uint64_t c = 0; c < 8; ++c) {
        sharded.enqueue(c, make_update(c, shape.model_size, 0.5f), 1.0);
      }
      sharded.reduce_and_reset();
      const auto start = std::chrono::steady_clock::now();
      for (std::uint64_t c = 0; c < shape.updates; ++c) {
        sharded.enqueue(c, make_update(c, shape.model_size, 0.5f), 1.0);
      }
      sharded.reduce_and_reset();
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };
    // Best of 3 per strategy: scheduler noise on shared runners dwarfs a
    // single measurement.
    auto best_of = [&](AggStrategy strategy) {
      double best = time_strategy(strategy);
      for (int r = 1; r < 3; ++r) best = std::min(best, time_strategy(strategy));
      return best;
    };
    const double locked = best_of(AggStrategy::kLocked);
    const double aut = best_of(AggStrategy::kAuto);
    EXPECT_LT(aut, locked * bound)
        << shape.name << ": auto " << aut << "s vs locked " << locked << "s";
  }
}

}  // namespace
}  // namespace papaya::fl
