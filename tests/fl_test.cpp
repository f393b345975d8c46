// Tests for the core FL library: update weighting, the parallel aggregation
// pipeline, Aggregator semantics in both modes (goals, demand, staleness
// aborts, over-selection, timeouts), Coordinator placement / demand pooling /
// failure recovery, Selector staleness, and the client runtime.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <thread>

#include "fl/aggregator.hpp"
#include "fl/chunking.hpp"
#include "fl/client_runtime.hpp"
#include "fl/coordinator.hpp"
#include "fl/model_store.hpp"
#include "fl/model_update.hpp"
#include "fl/parallel_agg.hpp"
#include "fl/secure_buffer.hpp"
#include "fl/selector.hpp"
#include "fl/shard_ring.hpp"
#include "fl/sharded_agg.hpp"
#include "ml/dataset.hpp"
#include "ml/math.hpp"
#include "util/rng.hpp"

namespace papaya::fl {
namespace {

// ---------------------------------------------------------- Model updates --

TEST(ModelUpdate, SerializationRoundTrip) {
  ModelUpdate u;
  u.client_id = 42;
  u.initial_version = 7;
  u.num_examples = 13;
  u.delta = {1.0f, -2.5f, 0.0f};
  const ModelUpdate back = ModelUpdate::deserialize(u.serialize());
  EXPECT_EQ(back.client_id, 42u);
  EXPECT_EQ(back.initial_version, 7u);
  EXPECT_EQ(back.num_examples, 13u);
  EXPECT_EQ(back.delta, u.delta);
}

TEST(ModelUpdate, HeaderReadMatchesDeserializeAndRejectsTruncation) {
  ModelUpdate u;
  u.client_id = 42;
  u.initial_version = 7;
  u.num_examples = 13;
  u.delta = {1.0f, -2.5f, 0.0f};
  util::Bytes bytes = u.serialize();
  const UpdateHeader header = UpdateHeader::read(bytes);
  EXPECT_EQ(header.client_id, 42u);
  EXPECT_EQ(header.initial_version, 7u);
  EXPECT_EQ(header.num_examples, 13u);
  EXPECT_EQ(header.delta_size, 3u);
  // Wherever the bytes end early, both readers refuse them.
  for (std::size_t cut = 1; cut <= bytes.size(); ++cut) {
    const util::Bytes prefix(bytes.begin(),
                             bytes.end() - static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(UpdateHeader::read(prefix), std::out_of_range) << cut;
    EXPECT_THROW(ModelUpdate::deserialize(prefix), std::out_of_range) << cut;
  }
  // Wherever the bytes go on past the last float, both readers refuse them.
  for (std::size_t extra = 1; extra <= 7; ++extra) {
    util::Bytes padded = bytes;
    padded.resize(bytes.size() + extra, 0);
    EXPECT_THROW(UpdateHeader::read(padded), std::out_of_range) << extra;
    EXPECT_THROW(ModelUpdate::deserialize(padded), std::out_of_range) << extra;
  }
  // So does a count of n - 1 over n floats, which leaves 4 bytes over.
  util::Bytes undercounted = bytes;
  undercounted[24] = 2;
  EXPECT_THROW(UpdateHeader::read(undercounted), std::out_of_range);
  EXPECT_THROW(ModelUpdate::deserialize(undercounted), std::out_of_range);
  // A count no payload could hold is refused without overflowing.
  for (std::size_t b = 24; b < 32; ++b) bytes[b] = 0xff;
  EXPECT_THROW(UpdateHeader::read(bytes), std::out_of_range);
}

TEST(ModelUpdate, StalenessWeightFollowsPaperFormula) {
  // App. E.2: w = 1 / sqrt(1 + s).
  EXPECT_DOUBLE_EQ(staleness_weight(0), 1.0);
  EXPECT_DOUBLE_EQ(staleness_weight(3), 0.5);
  EXPECT_NEAR(staleness_weight(99), 0.1, 1e-12);
}

// ----------------------------------------------------- Parallel aggregator --

util::Bytes make_update(std::uint64_t client, std::size_t size, float value,
                        std::size_t examples = 1) {
  ModelUpdate u;
  u.client_id = client;
  u.num_examples = examples;
  u.delta.assign(size, value);
  return u.serialize();
}

TEST(ParallelAggregator, WeightedMeanAcrossManyUpdates) {
  ParallelAggregator agg(4);
  // 10 updates of value i with weight i: sum = sum(i*i), weight = sum(i).
  double expected_num = 0.0, expected_den = 0.0;
  for (int i = 1; i <= 10; ++i) {
    agg.enqueue(make_update(static_cast<std::uint64_t>(i), 4,
                            static_cast<float>(i)),
                static_cast<double>(i));
    expected_num += static_cast<double>(i) * i;
    expected_den += i;
  }
  const auto reduced = agg.reduce_and_reset_sums();
  EXPECT_EQ(reduced.count, 10u);
  EXPECT_NEAR(reduced.weight_sum, expected_den, 1e-9);
  for (float v : reduced.mean_delta) {
    EXPECT_NEAR(v / reduced.weight_sum, expected_num / expected_den, 1e-4);
  }
}

TEST(ParallelAggregator, ResetsBetweenBuffers) {
  ParallelAggregator agg(2);
  agg.enqueue(make_update(1, 2, 1.0f), 1.0);
  (void)agg.reduce_and_reset_sums();
  agg.enqueue(make_update(2, 2, 5.0f), 1.0);
  const auto second = agg.reduce_and_reset_sums();
  EXPECT_EQ(second.count, 1u);
  EXPECT_NEAR(second.mean_delta[0], 5.0f, 1e-6);
}

TEST(ParallelAggregator, MalformedUpdateDropped) {
  ParallelAggregator agg(4);
  agg.enqueue(make_update(1, 2, 1.0f), 1.0);  // wrong size: 2 != 4
  agg.enqueue(make_update(2, 4, 3.0f), 1.0);
  const auto reduced = agg.reduce_and_reset_sums();
  EXPECT_EQ(reduced.count, 1u);
  EXPECT_NEAR(reduced.mean_delta[0], 3.0f, 1e-6);
}

TEST(ParallelAggregator, HighConcurrencyStress) {
  const std::size_t n = 2000;
  ParallelAggregator agg(8);
  for (std::size_t i = 0; i < n; ++i) {
    agg.enqueue(make_update(i, 8, 1.0f), 1.0);
  }
  const auto reduced = agg.reduce_and_reset_sums();
  EXPECT_EQ(reduced.count, n);
  EXPECT_NEAR(reduced.weight_sum, static_cast<double>(n), 1e-6);
  for (float v : reduced.mean_delta) EXPECT_EQ(v, static_cast<float>(n));
}

TEST(ParallelAggregator, EnqueueConcurrentWithReduceConservesUpdates) {
  // Regression for the reduce-vs-enqueue race: the reduce used to
  // read/reset intermediates while workers could still fold updates enqueued
  // mid-reduce, silently losing them.  Hammer enqueue against concurrent
  // reduces and assert exact conservation of count / weight / folded mass
  // across all buffers.
  constexpr std::size_t kProducers = 2;
  constexpr std::size_t kPerProducer = 250;
  constexpr std::size_t kModelSize = 8;
  ParallelAggregator agg(kModelSize);

  std::atomic<std::size_t> producers_done{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        agg.enqueue(make_update(p * kPerProducer + i, kModelSize, 1.0f), 1.0);
      }
      producers_done.fetch_add(1);
    });
  }

  std::size_t total_count = 0;
  double total_weight = 0.0;
  float folded_mass = 0.0f;  // sum over buffers of (raw weighted sum)[0]
  while (producers_done.load() < kProducers) {
    const auto sums = agg.reduce_and_reset_sums();
    total_count += sums.count;
    total_weight += sums.weight_sum;
    folded_mass += sums.mean_delta[0];
  }
  for (auto& t : producers) t.join();
  const auto last = agg.reduce_and_reset_sums();
  total_count += last.count;
  total_weight += last.weight_sum;
  folded_mass += last.mean_delta[0];

  constexpr auto kTotal = kProducers * kPerProducer;
  EXPECT_EQ(total_count, kTotal);
  EXPECT_DOUBLE_EQ(total_weight, static_cast<double>(kTotal));
  // Unit deltas with unit weights: partial sums are exact in float.
  EXPECT_EQ(folded_mass, static_cast<float>(kTotal));
}

// --------------------------------------------------------- Shard placement --

TEST(ShardPlacement, DeterministicAndCoversAllShards) {
  std::vector<std::size_t> load(4, 0);
  for (std::uint64_t key = 0; key < 512; ++key) {
    const std::size_t shard = shard_for(key, 4);
    ASSERT_LT(shard, 4u);
    ++load[shard];
  }
  // Every shard owns a material share of sequential client-id streams.
  for (std::size_t shard = 0; shard < 4; ++shard) {
    EXPECT_GT(load[shard], 512u / 16) << "shard " << shard << " starved";
  }
  // Placement is seedless, so it is the same in every process and run:
  // these are the owners of keys 0-7 on 8 shards.
  const std::array<std::size_t, 8> pinned = {7, 3, 0, 4, 7, 3, 5, 7};
  for (std::uint64_t key = 0; key < pinned.size(); ++key) {
    EXPECT_EQ(shard_for(key, 8), pinned[key]) << "key " << key;
  }
  // 0 shards counts as 1.
  EXPECT_EQ(shard_for(12345, 0), 0u);
  EXPECT_EQ(shard_for(12345, 1), 0u);
}

TEST(ShardPlacement, EachShardOwnsItsShareOfTheKeys) {
  // With one fold thread per shard, the busiest shard sets how long the
  // cross-shard reduce waits, so each of N shards must own 1/N of the keys.
  util::Rng rng(26);
  std::vector<std::uint64_t> keys(100000);
  for (auto& key : keys) key = rng.next();
  for (const std::size_t shards : {2, 4, 8}) {
    std::vector<std::size_t> load(shards, 0);
    for (const std::uint64_t key : keys) ++load[shard_for(key, shards)];
    for (std::size_t shard = 0; shard < shards; ++shard) {
      EXPECT_NEAR(static_cast<double>(load[shard]) / keys.size(),
                  1.0 / static_cast<double>(shards), 0.01)
          << "shard " << shard << " of " << shards;
    }
  }
  // Sequential client ids: 256 each would be even.
  std::size_t on_first = 0;
  for (std::uint64_t key = 0; key < 512; ++key) {
    on_first += shard_for(key, 2) == 0;
  }
  EXPECT_LE(std::max(on_first, 512 - on_first), 280u);
}

TEST(ShardPlacement, ReshardingMovesFewStreams) {
  // The consistency property: growing 4 -> 5 shards must not reshuffle the
  // world.  Only keys that land on the new shard move, ~1/5 of them; assert
  // a loose upper bound (well under a full reshuffle's ~4/5).
  constexpr std::uint64_t kStreams = 2000;
  std::uint64_t moved = 0;
  for (std::uint64_t key = 0; key < kStreams; ++key) {
    const std::size_t after = shard_for(key, 5);
    if (shard_for(key, 4) != after) {
      ++moved;
      EXPECT_EQ(after, 4u) << "key " << key << " moved between old shards";
    }
  }
  EXPECT_LT(moved, kStreams / 2);
  EXPECT_GT(moved, 0u);  // the new shard did take over some streams
}

// ------------------------------------------------------ Sharded aggregator --

ShardedAggregator::Config sharded_config(std::size_t model_size,
                                         std::size_t shards) {
  ShardedAggregator::Config cfg;
  cfg.model_size = model_size;
  cfg.num_shards = shards;
  return cfg;
}

TEST(ShardedAggregator, MatchesSingleAggregatorResult) {
  // Cross-shard conservation: the sharded reduce over any shard count must
  // equal the single-pipeline result for the same update set.
  constexpr std::size_t kModelSize = 16;
  ShardedAggregator single(sharded_config(kModelSize, 1));
  ShardedAggregator sharded(sharded_config(kModelSize, 4));
  EXPECT_EQ(sharded.num_shards(), 4u);

  double expected_weight = 0.0;
  for (std::uint64_t client = 1; client <= 40; ++client) {
    const float value = 0.25f * static_cast<float>(client % 7);
    const double weight = 1.0 + static_cast<double>(client % 3);
    single.enqueue(client, make_update(client, kModelSize, value), weight);
    sharded.enqueue(client, make_update(client, kModelSize, value), weight);
    expected_weight += weight;
  }
  const auto expected = single.reduce_and_reset();
  const auto got = sharded.reduce_and_reset();
  EXPECT_EQ(got.count, expected.count);
  EXPECT_NEAR(got.weight_sum, expected_weight, 1e-9);
  EXPECT_NEAR(got.weight_sum, expected.weight_sum, 1e-9);
  ASSERT_EQ(got.mean_delta.size(), expected.mean_delta.size());
  for (std::size_t i = 0; i < kModelSize; ++i) {
    EXPECT_NEAR(got.mean_delta[i], expected.mean_delta[i], 1e-4);
  }
}

TEST(ShardedAggregator, MalformedUpdatesDroppedPerShard) {
  // Every shard's pipeline drops wrong-sized updates without poisoning the
  // cross-shard reduce; keys are spread so multiple shards see one.
  constexpr std::size_t kModelSize = 4;
  ShardedAggregator sharded(sharded_config(kModelSize, 3));
  std::size_t good = 0;
  for (std::uint64_t client = 0; client < 30; ++client) {
    if (client % 3 == 0) {
      sharded.enqueue(client, make_update(client, kModelSize + 2, 9.0f), 1.0);
    } else {
      sharded.enqueue(client, make_update(client, kModelSize, 2.0f), 1.0);
      ++good;
    }
  }
  const auto reduced = sharded.reduce_and_reset();
  EXPECT_EQ(reduced.count, good);
  EXPECT_NEAR(reduced.weight_sum, static_cast<double>(good), 1e-9);
  for (float v : reduced.mean_delta) EXPECT_NEAR(v, 2.0f, 1e-4);
}

TEST(ShardedAggregator, StreamsStickToTheirShard) {
  const ShardedAggregator sharded(sharded_config(4, 4));
  for (std::uint64_t client = 0; client < 64; ++client) {
    EXPECT_EQ(sharded.shard_for(client), shard_for(client, 4));
    EXPECT_EQ(sharded.shard_for(client), sharded.shard_for(client));
  }
}

TEST(ShardedAggregator, ResetsBetweenBuffersAcrossShards) {
  ShardedAggregator sharded(sharded_config(2, 2));
  sharded.enqueue(1, make_update(1, 2, 1.0f), 1.0);
  sharded.enqueue(2, make_update(2, 2, 3.0f), 1.0);
  (void)sharded.reduce_and_reset();
  sharded.enqueue(3, make_update(3, 2, 5.0f), 1.0);
  const auto second = sharded.reduce_and_reset();
  EXPECT_EQ(second.count, 1u);
  EXPECT_NEAR(second.mean_delta[0], 5.0f, 1e-6);
}

// -------------------------------------------------------------- Aggregator --

TaskConfig async_task(std::size_t concurrency, std::size_t goal,
                      std::size_t model_size = 4) {
  TaskConfig cfg;
  cfg.name = "lm";
  cfg.mode = TrainingMode::kAsync;
  cfg.concurrency = concurrency;
  cfg.aggregation_goal = goal;
  cfg.model_size = model_size;
  cfg.max_staleness = 10;
  return cfg;
}

TaskConfig sync_task(std::size_t goal, double over_selection,
                     std::size_t model_size = 4) {
  TaskConfig cfg;
  cfg.name = "lm";
  cfg.mode = TrainingMode::kSync;
  cfg.concurrency = TaskConfig::over_selected_cohort(goal, over_selection);
  cfg.aggregation_goal = goal;
  cfg.model_size = model_size;
  return cfg;
}

util::Bytes update_from(std::uint64_t client, std::uint64_t version,
                        std::size_t model_size = 4, float value = 0.1f) {
  ModelUpdate u;
  u.client_id = client;
  u.initial_version = version;
  u.num_examples = 10;
  u.delta.assign(model_size, value);
  return u.serialize();
}

TEST(Aggregator, JoinRespectsConcurrencyLimit) {
  Aggregator agg("a");
  agg.assign_task(async_task(3, 2), std::vector<float>(4, 0.0f), {});
  EXPECT_TRUE(agg.client_join("lm", 1, 0.0).accepted);
  EXPECT_TRUE(agg.client_join("lm", 2, 0.0).accepted);
  EXPECT_TRUE(agg.client_join("lm", 3, 0.0).accepted);
  EXPECT_FALSE(agg.client_join("lm", 4, 0.0).accepted);  // App. E.1
  EXPECT_EQ(agg.client_demand("lm"), 0);
}

TEST(Aggregator, DuplicateJoinRejected) {
  Aggregator agg("a");
  agg.assign_task(async_task(3, 2), std::vector<float>(4, 0.0f), {});
  EXPECT_TRUE(agg.client_join("lm", 1, 0.0).accepted);
  EXPECT_FALSE(agg.client_join("lm", 1, 0.0).accepted);
}

TEST(Aggregator, AsyncGoalTriggersServerStep) {
  Aggregator agg("a");
  agg.assign_task(async_task(10, 3), std::vector<float>(4, 0.0f), {});
  for (std::uint64_t c = 1; c <= 3; ++c) agg.client_join("lm", c, 0.0);
  EXPECT_FALSE(agg.client_report("lm", update_from(1, 0), 1.0).server_stepped);
  EXPECT_FALSE(agg.client_report("lm", update_from(2, 0), 2.0).server_stepped);
  const auto r = agg.client_report("lm", update_from(3, 0), 3.0);
  EXPECT_TRUE(r.server_stepped);
  EXPECT_EQ(agg.model_version("lm"), 1u);
  EXPECT_EQ(agg.stats("lm").server_steps, 1u);
  EXPECT_EQ(agg.stats("lm").updates_applied, 3u);
}

TEST(Aggregator, ShardedTaskMatchesSinglePipelineStep) {
  // The same joins/reports through a 1-shard and a 4-shard task must yield
  // the same server step (cross-shard reduce conserves the weighted mean).
  auto run = [](std::size_t shards) {
    Aggregator agg("a");
    TaskConfig cfg = async_task(10, 4);
    cfg.aggregator_shards = shards;
    agg.assign_task(cfg, std::vector<float>(4, 0.0f), {.lr = 0.1f});
    EXPECT_EQ(agg.task_shards("lm"), shards == 0 ? 1 : shards);
    for (std::uint64_t c = 1; c <= 4; ++c) agg.client_join("lm", c, 0.0);
    ReportResult last;
    for (std::uint64_t c = 1; c <= 4; ++c) {
      last = agg.client_report(
          "lm", update_from(c, 0, 4, 0.1f * static_cast<float>(c)), 1.0);
    }
    EXPECT_TRUE(last.server_stepped);
    EXPECT_EQ(agg.model_version("lm"), 1u);
    return agg.model("lm");
  };
  const auto single = run(1);
  const auto sharded = run(4);
  ASSERT_EQ(single.size(), sharded.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    EXPECT_NEAR(single[i], sharded[i], 1e-5);
  }
}

TEST(Aggregator, WrongLengthReportIsRefusedAndNeverCountsTowardTheGoal) {
  // A delta whose length is not the task's model size can never fold.  It
  // is refused at report time: counted toward the goal and then dropped by
  // the fold, it would step an async server on fewer than K updates and
  // close a sync round that aborts the honest clients still running.
  for (const bool sync : {false, true}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
      SCOPED_TRACE(testing::Message() << (sync ? "sync" : "async") << ", "
                                      << shards << " shards");
      Aggregator agg("a");
      TaskConfig cfg = sync ? sync_task(2, 1.0) : async_task(10, 2);
      cfg.aggregator_shards = shards;
      agg.assign_task(cfg, std::vector<float>(4, 0.0f), {.lr = 0.1f});
      for (std::uint64_t c = 1; c <= 4; ++c) {
        ASSERT_TRUE(agg.client_join("lm", c, 0.0).accepted);
      }
      // Clients 1 and 2 send 3 and 5 floats; 3 and 4 send the model's 4.
      const std::size_t sizes[] = {3, 5, 4, 4};
      std::vector<ReportResult> results;
      for (std::uint64_t c = 1; c <= 4; ++c) {
        results.push_back(agg.client_report(
            "lm", update_from(c, 0, sizes[c - 1], 1.0f), 1.0));
      }
      for (const std::size_t bad : {0, 1}) {
        EXPECT_EQ(results[bad].outcome, ReportOutcome::kRejectedUnknown);
        EXPECT_FALSE(results[bad].server_stepped);
      }
      EXPECT_EQ(results[2].outcome, ReportOutcome::kAccepted);
      EXPECT_FALSE(results[2].server_stepped);
      EXPECT_EQ(results[3].outcome, ReportOutcome::kAccepted);
      EXPECT_TRUE(results[3].server_stepped);

      const TaskStats& stats = agg.stats("lm");
      EXPECT_EQ(stats.server_steps, 1u);
      EXPECT_EQ(stats.updates_received, 4u);
      EXPECT_EQ(stats.updates_applied, 2u);
      EXPECT_EQ(stats.updates_discarded, 2u);
      for (float v : agg.model("lm")) EXPECT_GT(v, 0.0f);
    }
  }
}

/// One update of `value` in every element, weight 1 (one example, no
/// staleness), as a hostile client might send.
util::Bytes uniform_update(std::uint64_t client, float value) {
  ModelUpdate u;
  u.client_id = client;
  u.num_examples = 1;
  u.delta.assign(4, value);
  return u.serialize();
}

/// After any server step every received update was applied or discarded.
void expect_all_accounted(const TaskStats& stats) {
  EXPECT_EQ(stats.updates_received,
            stats.updates_applied + stats.updates_discarded);
}

TEST(Aggregator, ReportThatWeighsNothingIsRefusedAndNeverSteps) {
  // The server weights an update by sqrt(num_examples), which the client
  // declares.  Reports that declare 0 examples (here with a delta of 1e30)
  // weigh nothing; accepted, two would fill a goal of 2 and step the server
  // on a mean of nothing: the version would move, aging every client in
  // flight, and FedAdam's momentum would move the model.
  {
    SCOPED_TRACE("async, after one honest step");
    Aggregator agg("a");
    agg.assign_task(async_task(10, 2), std::vector<float>(4, 0.0f),
                    {.lr = 0.1f});
    for (std::uint64_t c = 1; c <= 4; ++c) {
      ASSERT_TRUE(agg.client_join("lm", c, 0.0).accepted);
    }
    (void)agg.client_report("lm", update_from(1, 0), 1.0);
    ASSERT_TRUE(agg.client_report("lm", update_from(2, 0), 1.0).server_stepped);
    const std::vector<float> stepped = agg.model("lm");
    for (std::uint64_t c = 3; c <= 4; ++c) {
      const ReportResult r =
          agg.client_report("lm", make_update(c, 4, 1e30f, 0), 2.0);
      EXPECT_EQ(r.outcome, ReportOutcome::kRejectedUnknown);
      EXPECT_FALSE(r.server_stepped);
    }
    EXPECT_EQ(agg.model_version("lm"), 1u);
    EXPECT_EQ(agg.model("lm"), stepped);
    const TaskStats& stats = agg.stats("lm");
    EXPECT_EQ(stats.server_steps, 1u);
    EXPECT_EQ(stats.updates_applied, 2u);
    EXPECT_EQ(stats.updates_discarded, 2u);
    expect_all_accounted(stats);
    EXPECT_EQ(agg.active_clients("lm"), 0u);
  }
  {
    SCOPED_TRACE("sync: refused before the round counts them");
    Aggregator agg("a");
    agg.assign_task(sync_task(2, 1.0), std::vector<float>(4, 0.0f),
                    {.lr = 0.1f});
    for (std::uint64_t c = 1; c <= 4; ++c) {
      ASSERT_TRUE(agg.client_join("lm", c, 0.0).accepted);
    }
    for (std::uint64_t c = 1; c <= 2; ++c) {
      const ReportResult r =
          agg.client_report("lm", make_update(c, 4, 1e30f, 0), 1.0);
      EXPECT_EQ(r.outcome, ReportOutcome::kRejectedUnknown);
      EXPECT_FALSE(r.server_stepped);
    }
    // Both slots are free for replacements; the round is still open.
    EXPECT_EQ(agg.client_demand("lm"), 2);
    (void)agg.client_report("lm", update_from(3, 0), 2.0);
    EXPECT_TRUE(agg.client_report("lm", update_from(4, 0), 2.0).server_stepped);
    EXPECT_EQ(agg.stats("lm").updates_applied, 2u);
    EXPECT_EQ(agg.stats("lm").updates_discarded, 2u);
    for (float v : agg.model("lm")) EXPECT_GT(v, 0.0f);
  }
}

TEST(Aggregator, AsyncBufferTheFoldDropsEntirelyIsDiscardedNotStepped) {
  // Goal 2, concurrency 3: both updates of the first buffer are all NaN, so
  // the fold keeps neither.  No step is reported or applied, both count as
  // discarded, and the buffer starts over, so the next step takes two
  // honest updates, not one.
  Aggregator agg("a");
  agg.assign_task(async_task(3, 2), std::vector<float>(4, 0.0f), {.lr = 0.1f});
  for (std::uint64_t c = 1; c <= 3; ++c) {
    ASSERT_TRUE(agg.client_join("lm", c, 0.0).accepted);
  }
  const ReportResult first =
      agg.client_report("lm", uniform_update(1, std::nanf("")), 1.0);
  const ReportResult second =
      agg.client_report("lm", uniform_update(2, std::nanf("")), 1.0);
  EXPECT_EQ(second.outcome, ReportOutcome::kAccepted);
  EXPECT_FALSE(first.server_stepped);
  EXPECT_FALSE(second.server_stepped);
  EXPECT_TRUE(second.aborted_clients.empty());
  EXPECT_EQ(agg.model_version("lm"), 0u);
  EXPECT_EQ(agg.stats("lm").server_steps, 0u);
  EXPECT_EQ(agg.stats("lm").updates_discarded, 2u);
  EXPECT_EQ(agg.stats("lm").updates_applied, 0u);
  expect_all_accounted(agg.stats("lm"));

  ASSERT_TRUE(agg.client_join("lm", 4, 2.0).accepted);
  EXPECT_FALSE(
      agg.client_report("lm", uniform_update(3, 0.5f), 3.0).server_stepped);
  EXPECT_TRUE(
      agg.client_report("lm", uniform_update(4, 0.5f), 3.0).server_stepped);
  const TaskStats& stats = agg.stats("lm");
  EXPECT_EQ(agg.model_version("lm"), 1u);
  EXPECT_EQ(stats.server_steps, 1u);
  EXPECT_EQ(stats.updates_applied, 2u);
  expect_all_accounted(stats);
  for (const float v : agg.model("lm")) EXPECT_GT(v, 0.0f);
}

TEST(Aggregator, SyncBufferTheFoldDropsEntirelyKeepsTheRoundOpen) {
  // Goal 2 with 50% over-selection (cohort 3): the first two reports are
  // all NaN.  The round must not close on them: the third client keeps
  // training, and the discarded updates' slots are freed so replacements
  // can be selected.
  Aggregator agg("a");
  agg.assign_task(sync_task(2, 0.5), std::vector<float>(4, 0.0f),
                  {.lr = 0.1f});
  for (std::uint64_t c = 1; c <= 3; ++c) {
    ASSERT_TRUE(agg.client_join("lm", c, 0.0).accepted);
  }
  (void)agg.client_report("lm", uniform_update(1, std::nanf("")), 1.0);
  const ReportResult second =
      agg.client_report("lm", uniform_update(2, std::nanf("")), 1.0);
  EXPECT_FALSE(second.server_stepped);
  EXPECT_TRUE(second.aborted_clients.empty());
  EXPECT_EQ(agg.active_clients("lm"), 1u);
  EXPECT_EQ(agg.client_demand("lm"), 2);
  EXPECT_EQ(agg.model_version("lm"), 0u);
  EXPECT_EQ(agg.stats("lm").updates_discarded, 2u);
  EXPECT_EQ(agg.stats("lm").clients_aborted, 0u);

  ASSERT_TRUE(agg.client_join("lm", 4, 2.0).accepted);
  (void)agg.client_report("lm", uniform_update(3, 0.5f), 3.0);
  const ReportResult closing =
      agg.client_report("lm", uniform_update(4, 0.5f), 3.0);
  EXPECT_TRUE(closing.server_stepped);
  EXPECT_EQ(agg.model_version("lm"), 1u);
  EXPECT_EQ(agg.stats("lm").updates_applied, 2u);
  expect_all_accounted(agg.stats("lm"));
}

TEST(Aggregator, NonFiniteCrossShardMeanIsDiscardedNotStepped) {
  // Two updates of 2e38 at weight 1 from clients on different shards: each
  // shard's sum is finite, but their sum overflows to +inf.  That mean must
  // not reach the optimizer.
  TaskConfig cfg = async_task(10, 2);
  cfg.aggregator_shards = 4;
  const std::uint64_t a = 1;
  std::uint64_t b = a + 1;
  while (shard_for(b, cfg.aggregator_shards) ==
         shard_for(a, cfg.aggregator_shards)) {
    ++b;
  }
  Aggregator agg("a");
  agg.assign_task(cfg, std::vector<float>(4, 0.0f), {.lr = 0.1f});
  ASSERT_TRUE(agg.client_join("lm", a, 0.0).accepted);
  ASSERT_TRUE(agg.client_join("lm", b, 0.0).accepted);
  (void)agg.client_report("lm", uniform_update(a, 2e38f), 1.0);
  const ReportResult second =
      agg.client_report("lm", uniform_update(b, 2e38f), 1.0);
  EXPECT_FALSE(second.server_stepped);
  EXPECT_EQ(agg.model_version("lm"), 0u);
  EXPECT_EQ(agg.stats("lm").server_steps, 0u);
  EXPECT_EQ(agg.stats("lm").updates_discarded, 2u);
  expect_all_accounted(agg.stats("lm"));
  for (const float v : agg.model("lm")) EXPECT_EQ(v, 0.0f);
}

TEST(Aggregator, StepGoesAheadOnTheUpdatesTheFoldKept) {
  // Goal 3, one all-NaN update: the step applies the two honest ones, and
  // the dropped one counts as discarded.
  Aggregator agg("a");
  agg.assign_task(async_task(10, 3), std::vector<float>(4, 0.0f),
                  {.lr = 0.1f});
  for (std::uint64_t c = 1; c <= 3; ++c) {
    ASSERT_TRUE(agg.client_join("lm", c, 0.0).accepted);
  }
  (void)agg.client_report("lm", uniform_update(1, 0.5f), 1.0);
  (void)agg.client_report("lm", uniform_update(2, std::nanf("")), 1.0);
  EXPECT_TRUE(
      agg.client_report("lm", uniform_update(3, 0.5f), 1.0).server_stepped);
  const TaskStats& stats = agg.stats("lm");
  EXPECT_EQ(stats.server_steps, 1u);
  EXPECT_EQ(stats.updates_applied, 2u);
  EXPECT_EQ(stats.updates_discarded, 1u);
  expect_all_accounted(stats);
  for (const float v : agg.model("lm")) EXPECT_GT(v, 0.0f);
}

TEST(Aggregator, ServerStepMovesModelInDeltaDirection) {
  Aggregator agg("a");
  agg.assign_task(async_task(5, 1), std::vector<float>(4, 0.0f), {.lr = 0.1f});
  agg.client_join("lm", 1, 0.0);
  agg.client_report("lm", update_from(1, 0, 4, 1.0f), 1.0);
  for (float v : agg.model("lm")) EXPECT_GT(v, 0.0f);
}

TEST(Aggregator, AsyncStaleUpdateDiscarded) {
  // The report-time staleness check: a client *in the active set* whose
  // update header claims an initial version older than max_staleness allows
  // (e.g. a client that re-used a stale cached model) must be discarded.
  Aggregator agg("a");
  auto cfg = async_task(20, 1);
  cfg.max_staleness = 2;
  agg.assign_task(cfg, std::vector<float>(4, 0.0f), {});
  // Drive the version to 4 with fresh clients (K = 1).
  for (std::uint64_t c = 1; c <= 4; ++c) {
    agg.client_join("lm", c, 0.0);
    agg.client_report("lm", update_from(c, agg.model_version("lm")), 1.0);
  }
  EXPECT_EQ(agg.model_version("lm"), 4u);
  // Client 10 joins *now* (version 4) but reports an update computed from
  // version 0: staleness 4 > 2.
  agg.client_join("lm", 10, 2.0);
  const auto r = agg.client_report("lm", update_from(10, 0), 5.0);
  EXPECT_EQ(r.outcome, ReportOutcome::kDiscardedStale);
  EXPECT_EQ(agg.model_version("lm"), 4u);
}

TEST(Aggregator, AsyncAbortsOverStaleClientsAfterStep) {
  Aggregator agg("a");
  auto cfg = async_task(20, 1);
  cfg.max_staleness = 3;
  agg.assign_task(cfg, std::vector<float>(4, 0.0f), {});
  agg.client_join("lm", 10, 0.0);  // joins at version 0
  std::vector<std::uint64_t> aborted;
  for (std::uint64_t c = 1; c <= 5; ++c) {
    agg.client_join("lm", c, 0.0);
    const auto r =
        agg.client_report("lm", update_from(c, agg.model_version("lm")), 1.0);
    aborted.insert(aborted.end(), r.aborted_clients.begin(),
                   r.aborted_clients.end());
  }
  // After version exceeds staleness 3, client 10 must have been aborted.
  EXPECT_NE(std::find(aborted.begin(), aborted.end(), 10u), aborted.end());
  // And its eventual report is rejected.
  const auto r = agg.client_report("lm", update_from(10, 0), 6.0);
  EXPECT_EQ(r.outcome, ReportOutcome::kRejectedUnknown);
}

TEST(Aggregator, SyncRoundClosesAtGoalAndAbortsStragglers) {
  Aggregator agg("a");
  agg.assign_task(sync_task(2, 0.5), std::vector<float>(4, 0.0f), {});
  // Cohort of 3 (goal 2, 50% over-selection).
  EXPECT_TRUE(agg.client_join("lm", 1, 0.0).accepted);
  EXPECT_TRUE(agg.client_join("lm", 2, 0.0).accepted);
  EXPECT_TRUE(agg.client_join("lm", 3, 0.0).accepted);

  agg.client_report("lm", update_from(1, 0), 1.0);
  const auto r = agg.client_report("lm", update_from(2, 0), 2.0);
  EXPECT_TRUE(r.server_stepped);
  // The straggler (client 3) is aborted at round close.
  ASSERT_EQ(r.aborted_clients.size(), 1u);
  EXPECT_EQ(r.aborted_clients[0], 3u);
  // Its late report is discarded (over-selection discard).
  const auto late = agg.client_report("lm", update_from(3, 0), 3.0);
  EXPECT_EQ(late.outcome, ReportOutcome::kRejectedUnknown);
  EXPECT_GE(agg.stats("lm").updates_discarded, 1u);
}

TEST(Aggregator, SyncDemandSemantics) {
  // App. E.3: sync demand = cohort - completed - active; a completion does
  // NOT open a slot mid-round, a failure does.
  Aggregator agg("a");
  agg.assign_task(sync_task(4, 0.0), std::vector<float>(4, 0.0f), {});
  EXPECT_EQ(agg.client_demand("lm"), 4);
  for (std::uint64_t c = 1; c <= 4; ++c) agg.client_join("lm", c, 0.0);
  EXPECT_EQ(agg.client_demand("lm"), 0);

  agg.client_report("lm", update_from(1, 0), 1.0);  // completion
  EXPECT_EQ(agg.client_demand("lm"), 0);            // no replacement slot

  agg.client_failed("lm", 2, 1.5);                  // failure
  EXPECT_EQ(agg.client_demand("lm"), 1);            // mid-round replacement
  EXPECT_TRUE(agg.client_join("lm", 5, 2.0).accepted);
}

TEST(Aggregator, AsyncDemandOpensSlotOnCompletionAndFailure) {
  Aggregator agg("a");
  agg.assign_task(async_task(2, 5), std::vector<float>(4, 0.0f), {});
  agg.client_join("lm", 1, 0.0);
  agg.client_join("lm", 2, 0.0);
  EXPECT_EQ(agg.client_demand("lm"), 0);
  agg.client_report("lm", update_from(1, 0), 1.0);
  EXPECT_EQ(agg.client_demand("lm"), 1);  // completion frees the slot
  agg.client_failed("lm", 2, 1.0);
  EXPECT_EQ(agg.client_demand("lm"), 2);
}

TEST(Aggregator, SyncNewRoundStartsAfterStep) {
  Aggregator agg("a");
  agg.assign_task(sync_task(2, 0.0), std::vector<float>(4, 0.0f), {});
  agg.client_join("lm", 1, 0.0);
  agg.client_join("lm", 2, 0.0);
  agg.client_report("lm", update_from(1, 0), 1.0);
  agg.client_report("lm", update_from(2, 0), 2.0);
  EXPECT_EQ(agg.model_version("lm"), 1u);
  // New round: full demand again.
  EXPECT_EQ(agg.client_demand("lm"), 2);
  EXPECT_TRUE(agg.client_join("lm", 3, 3.0).accepted);
}

TEST(Aggregator, TimeoutExpiryFreesSlotAndRejectsLateReport) {
  Aggregator agg("a");
  auto cfg = async_task(1, 5);
  cfg.client_timeout_s = 10.0;
  agg.assign_task(cfg, std::vector<float>(4, 0.0f), {});
  agg.client_join("lm", 1, 0.0);
  const auto expired = agg.expire_timeouts("lm", 11.0);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 1u);
  EXPECT_EQ(agg.client_demand("lm"), 1);
  const auto r = agg.client_report("lm", update_from(1, 0), 12.0);
  EXPECT_EQ(r.outcome, ReportOutcome::kRejectedUnknown);
}

TEST(Aggregator, LateReportPastDeadlineRejected) {
  Aggregator agg("a");
  auto cfg = async_task(1, 5);
  cfg.client_timeout_s = 10.0;
  agg.assign_task(cfg, std::vector<float>(4, 0.0f), {});
  agg.client_join("lm", 1, 0.0);
  const auto r = agg.client_report("lm", update_from(1, 0), 20.0);
  EXPECT_EQ(r.outcome, ReportOutcome::kRejectedTimeout);
}

TEST(Aggregator, StalenessWeightingDownweightsStaleUpdates) {
  // Two aggregations with identical deltas, one fresh and one stale: the
  // weighted mean must tilt toward the fresh update's direction.
  Aggregator agg("a");
  auto cfg = async_task(10, 2, /*model_size=*/1);
  cfg.max_staleness = 100;
  agg.assign_task(cfg, std::vector<float>(1, 0.0f), {.lr = 0.5f});
  // Build a version gap: client A joins now; 1 step happens via B,C.
  agg.client_join("lm", 1, 0.0);  // will become stale
  agg.client_join("lm", 2, 0.0);
  agg.client_join("lm", 3, 0.0);
  agg.client_report("lm", update_from(2, 0, 1, 1.0f), 1.0);
  agg.client_report("lm", update_from(3, 0, 1, 1.0f), 1.0);  // step 1
  const float after_first = agg.model("lm")[0];

  // Now stale client (staleness 1, weight 1/sqrt(2)) reports -1, and a fresh
  // client reports +1 with weight 1: mean > 0.
  agg.client_join("lm", 4, 2.0);
  agg.client_report("lm", update_from(1, 0, 1, -1.0f), 2.0);
  agg.client_report("lm", update_from(4, 1, 1, 1.0f), 2.0);
  EXPECT_GT(agg.model("lm")[0], after_first - 1e-6);
}

TEST(Aggregator, RejectsSyncGoalAboveConcurrency) {
  Aggregator agg("a");
  TaskConfig cfg = sync_task(4, 0.0);
  cfg.concurrency = 3;
  EXPECT_THROW(agg.assign_task(cfg, std::vector<float>(4, 0.0f), {}),
               std::invalid_argument);
}

TEST(Aggregator, UnknownTaskThrows) {
  Aggregator agg("a");
  EXPECT_THROW(agg.model("nope"), std::out_of_range);
  EXPECT_THROW(agg.client_join("nope", 1, 0.0), std::out_of_range);
}

TEST(Aggregator, MalformedReportThrowsWithoutMovingCounters) {
  Aggregator agg("a");
  agg.assign_task(async_task(10, 2), std::vector<float>(4, 0.0f), {});
  ASSERT_TRUE(agg.client_join("lm", 1, 0.0).accepted);
  const auto counters = [&] {
    const TaskStats& s = agg.stats("lm");
    return std::array{s.updates_received, s.updates_applied,
                      s.updates_discarded, s.server_steps,
                      s.clients_aborted,   s.clients_failed};
  };
  const auto before = counters();

  const util::Bytes honest = update_from(1, 0);
  const util::Bytes truncated(honest.begin(), honest.end() - 3);
  const util::Bytes header_only(honest.begin(), honest.begin() + 10);
  for (const util::Bytes* bad : {&truncated, &header_only}) {
    EXPECT_THROW(agg.client_report("lm", *bad, 1.0), std::out_of_range);
    EXPECT_EQ(counters(), before);
    EXPECT_EQ(agg.active_clients("lm"), 1u);
  }

  EXPECT_EQ(agg.client_report("lm", honest, 1.0).outcome,
            ReportOutcome::kAccepted);
  EXPECT_EQ(agg.stats("lm").updates_received, 1u);
  EXPECT_EQ(agg.active_clients("lm"), 0u);
}

// ------------------------------------------------------------- Coordinator --

TEST(Coordinator, PlacesTaskOnLeastLoadedAggregator) {
  Aggregator a("a"), b("b");
  Coordinator coord;
  coord.register_aggregator(a, 0.0);
  coord.register_aggregator(b, 0.0);

  TaskConfig big = async_task(100, 10, 8);
  big.name = "big";
  coord.submit_task(big, std::vector<float>(8, 0.0f), {});
  TaskConfig small = async_task(1, 1, 8);
  small.name = "small";
  coord.submit_task(small, std::vector<float>(8, 0.0f), {});

  // The second task must land on the other aggregator.
  EXPECT_NE(coord.assignment_map().task_to_aggregator.at("big"),
            coord.assignment_map().task_to_aggregator.at("small"));
}

TEST(Coordinator, AssignsClientsToEligibleTasksOnly) {
  Aggregator a("a");
  Coordinator coord;
  coord.register_aggregator(a, 0.0);
  TaskConfig cfg = async_task(5, 2);
  cfg.required_capability = "gpu";
  coord.submit_task(cfg, std::vector<float>(4, 0.0f), {});

  EXPECT_FALSE(coord.assign_client({{"cpu"}}).has_value());
  const auto assignment = coord.assign_client({{"gpu", "cpu"}});
  ASSERT_TRUE(assignment.has_value());
  EXPECT_EQ(assignment->task, "lm");
}

TEST(Coordinator, PendingAssignmentsReduceDemand) {
  Aggregator a("a");
  Coordinator coord;
  coord.register_aggregator(a, 0.0);
  coord.submit_task(async_task(2, 1), std::vector<float>(4, 0.0f), {});

  EXPECT_TRUE(coord.assign_client({}).has_value());
  EXPECT_TRUE(coord.assign_client({}).has_value());
  // Demand exhausted by pending assignments (Sec. 6.2).
  EXPECT_FALSE(coord.assign_client({}).has_value());
  coord.assignment_concluded("lm");
  EXPECT_TRUE(coord.assign_client({}).has_value());
}

TEST(Coordinator, ReportsRefreshDemandAndResetPending) {
  Aggregator a("a");
  Coordinator coord;
  coord.register_aggregator(a, 0.0);
  coord.submit_task(async_task(3, 1), std::vector<float>(4, 0.0f), {});
  (void)coord.assign_client({});
  (void)coord.assign_client({});
  EXPECT_EQ(coord.pooled_demand("lm"), 1);
  coord.aggregator_report("a", a.next_report_sequence(), 1.0,
                          {{"lm", a.client_demand("lm"), 0}});
  EXPECT_EQ(coord.pooled_demand("lm"), 3);
}

TEST(Coordinator, StaleReportIgnored) {
  Aggregator a("a");
  Coordinator coord;
  coord.register_aggregator(a, 0.0);
  coord.submit_task(async_task(3, 1), std::vector<float>(4, 0.0f), {});
  coord.aggregator_report("a", 5, 1.0, {{"lm", 1, 0}});
  coord.aggregator_report("a", 4, 2.0, {{"lm", 99, 0}});  // stale sequence
  EXPECT_EQ(coord.pooled_demand("lm"), 1);
}

TEST(Coordinator, FailureDetectionReassignsTasks) {
  Aggregator a("a"), b("b");
  Coordinator coord;
  coord.register_aggregator(a, 0.0);
  coord.register_aggregator(b, 0.0);
  coord.submit_task(async_task(5, 2), std::vector<float>(4, 0.5f), {});
  const std::string original =
      coord.assignment_map().task_to_aggregator.at("lm");
  Aggregator& owner = original == "a" ? a : b;
  Aggregator& other = original == "a" ? b : a;

  // Only the other aggregator heartbeats; the owner goes silent.
  const std::uint64_t v0 = coord.assignment_map().version;
  coord.aggregator_report(other.id(), 1, 100.0, {});
  const auto failed = coord.detect_failures(100.0, 30.0);
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], owner.id());
  EXPECT_EQ(coord.assignment_map().task_to_aggregator.at("lm"), other.id());
  EXPECT_GT(coord.assignment_map().version, v0);
  EXPECT_TRUE(other.has_task("lm"));
  // Model state survived the move (checkpoint semantics).
  EXPECT_FLOAT_EQ(other.model("lm")[0], 0.5f);
}

TEST(Coordinator, TracksAndNormalizesShardCounts) {
  Aggregator a("a");
  Coordinator coord;
  coord.register_aggregator(a, 0.0);
  TaskConfig sharded = async_task(5, 2);
  sharded.aggregator_shards = 4;
  coord.submit_task(sharded, std::vector<float>(4, 0.0f), {});
  EXPECT_EQ(coord.task_shards("lm"), 4u);
  EXPECT_EQ(a.task_shards("lm"), 4u);

  TaskConfig zero = async_task(5, 2);
  zero.name = "z";
  zero.aggregator_shards = 0;  // normalized to 1 at the placement boundary
  coord.submit_task(zero, std::vector<float>(4, 0.0f), {});
  EXPECT_EQ(coord.task_shards("z"), 1u);
  EXPECT_EQ(a.task_shards("z"), 1u);
  EXPECT_EQ(coord.task_shards("unknown"), 0u);
}

TEST(Coordinator, ShardingDoesNotSkewPlacementLoad) {
  // All of a task's shards run on its one owning Aggregator, so sharding
  // must not change the placement weight (dividing by the shard count would
  // under-report load on exactly the busiest host).
  TaskConfig sharded = async_task(64, 2, /*model_size=*/64);
  sharded.aggregator_shards = 8;
  TaskConfig unsharded = async_task(64, 2, /*model_size=*/64);
  EXPECT_DOUBLE_EQ(sharded.estimated_workload(),
                   unsharded.estimated_workload());

  // Two equally-heavy tasks — one sharded, one not — spread across two
  // Aggregators instead of stacking on the sharded task's host.
  Aggregator a("a"), b("b");
  Coordinator coord;
  coord.register_aggregator(a, 0.0);
  coord.register_aggregator(b, 0.0);
  sharded.name = "sharded";
  coord.submit_task(sharded, std::vector<float>(64, 0.0f), {});
  unsharded.name = "heavy";
  coord.submit_task(unsharded, std::vector<float>(64, 0.0f), {});
  EXPECT_NE(coord.assignment_map().task_to_aggregator.at("heavy"),
            coord.assignment_map().task_to_aggregator.at("sharded"));
}

TEST(Coordinator, RecoveryRebuildsMapFromAggregators) {
  Aggregator a("a");
  Coordinator coord;
  coord.register_aggregator(a, 0.0);
  coord.submit_task(async_task(5, 2), std::vector<float>(4, 0.0f), {});
  const auto before = coord.assignment_map().task_to_aggregator;

  // Simulated coordinator restart: rebuild from aggregator state.
  coord.recover_from_aggregator_state(50.0);
  EXPECT_EQ(coord.assignment_map().task_to_aggregator, before);
}

TEST(Coordinator, NoAggregatorsThrows) {
  Coordinator coord;
  EXPECT_THROW(coord.submit_task(async_task(1, 1), std::vector<float>(4, 0.0f),
                                 {}),
               std::runtime_error);
}

TEST(Coordinator, RemoveTaskStopsAssignment) {
  Aggregator a("a");
  Coordinator coord;
  coord.register_aggregator(a, 0.0);
  coord.submit_task(async_task(5, 2), std::vector<float>(4, 0.0f), {});
  coord.remove_task("lm");
  EXPECT_FALSE(coord.assign_client({}).has_value());
  EXPECT_FALSE(a.has_task("lm"));
}

// ---------------------------------------------------------------- Selector --

TEST(Selector, RoutesAfterRefresh) {
  Aggregator a("a");
  Coordinator coord;
  coord.register_aggregator(a, 0.0);
  coord.submit_task(async_task(5, 2), std::vector<float>(4, 0.0f), {});

  Selector sel("s");
  EXPECT_FALSE(sel.route("lm").has_value());  // never refreshed
  sel.refresh(coord);
  ASSERT_TRUE(sel.route("lm").has_value());
  EXPECT_EQ(*sel.route("lm"), "a");
}

TEST(Selector, DetectsStaleness) {
  Aggregator a("a");
  Coordinator coord;
  coord.register_aggregator(a, 0.0);
  Selector sel("s");
  sel.refresh(coord);
  EXPECT_FALSE(sel.is_stale(coord));
  coord.submit_task(async_task(5, 2), std::vector<float>(4, 0.0f), {});
  EXPECT_TRUE(sel.is_stale(coord));  // map version bumped
  sel.refresh(coord);
  EXPECT_FALSE(sel.is_stale(coord));
}

TEST(Selector, CrashWipesMapAndRefreshRestores) {
  Aggregator a("a");
  Coordinator coord;
  coord.register_aggregator(a, 0.0);
  coord.submit_task(async_task(5, 2), std::vector<float>(4, 0.0f), {});
  Selector sel("s");
  sel.refresh(coord);
  sel.crash();
  EXPECT_FALSE(sel.route("lm").has_value());
  sel.refresh(coord);
  EXPECT_TRUE(sel.route("lm").has_value());
}

// ----------------------------------------------------- Chunked uploads ----

TEST(Chunking, SplitAndReassembleRoundTrip) {
  util::Bytes payload(200'001);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  const auto chunks = chunk_upload(7, payload, 64 * 1024);
  EXPECT_EQ(chunks.size(), 4u);
  ChunkAssembler assembler(7);
  for (const auto& chunk : chunks) {
    const auto verdict = assembler.accept(chunk);
    EXPECT_TRUE(verdict == ChunkAssembler::Accept::kAccepted ||
                verdict == ChunkAssembler::Accept::kComplete);
  }
  const auto out = assembler.assemble();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
}

TEST(Chunking, OutOfOrderAndDuplicateChunks) {
  util::Bytes payload(1000, 0xab);
  auto chunks = chunk_upload(1, payload, 100);
  ChunkAssembler assembler(1);
  // Reverse order + a duplicate.
  for (auto it = chunks.rbegin(); it != chunks.rend(); ++it) {
    assembler.accept(*it);
  }
  EXPECT_EQ(assembler.accept(chunks[3]), ChunkAssembler::Accept::kDuplicate);
  EXPECT_EQ(*assembler.assemble(), payload);
}

TEST(Chunking, CorruptChunkRejected) {
  auto chunks = chunk_upload(1, util::Bytes(500, 0x11), 100);
  chunks[2].payload[5] ^= 0x01;  // CRC now mismatches
  ChunkAssembler assembler(1);
  EXPECT_EQ(assembler.accept(chunks[2]), ChunkAssembler::Accept::kCorrupt);
  EXPECT_FALSE(assembler.complete());
  // Retransmission of the intact chunk succeeds.
  chunks[2].payload[5] ^= 0x01;
  EXPECT_EQ(assembler.accept(chunks[2]), ChunkAssembler::Accept::kAccepted);
}

TEST(Chunking, WrongSessionOrInconsistentTotalsRejected) {
  const util::Bytes payload(300, 0x22);
  const auto chunks = chunk_upload(1, payload, 100);
  ChunkAssembler assembler(2);  // different session
  EXPECT_EQ(assembler.accept(chunks[0]), ChunkAssembler::Accept::kInconsistent);

  ChunkAssembler assembler2(1);
  assembler2.accept(chunks[0]);
  // A tampered total no longer matches the framing-covering CRC: it is
  // indistinguishable from line corruption.
  UploadChunk lying = chunks[1];
  lying.total = 99;
  EXPECT_EQ(assembler2.accept(lying), ChunkAssembler::Accept::kCorrupt);
  // An authentic chunk from a different chunking of the same session (other
  // chunk size, so other total) is well-formed but inconsistent.
  const auto rechunked = chunk_upload(1, payload, 150);
  ASSERT_NE(rechunked[0].total, chunks[0].total);
  EXPECT_EQ(assembler2.accept(rechunked[0]),
            ChunkAssembler::Accept::kInconsistent);
}

TEST(Chunking, EmptyPayloadStillOneChunk) {
  const auto chunks = chunk_upload(1, {}, 100);
  ASSERT_EQ(chunks.size(), 1u);
  ChunkAssembler assembler(1);
  EXPECT_EQ(assembler.accept(chunks[0]), ChunkAssembler::Accept::kComplete);
  EXPECT_EQ(assembler.assemble()->size(), 0u);
}

TEST(Chunking, Crc32KnownAnswer) {
  // CRC-32 of "123456789" is 0xcbf43926 (IEEE 802.3 check value).
  const std::string s = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()}),
            0xcbf43926u);
}

TEST(Chunking, ChunkSerializationRoundTrip) {
  UploadChunk chunk;
  chunk.session_id = 42;
  chunk.index = 3;
  chunk.total = 7;
  chunk.payload = {1, 2, 3};
  chunk.crc = crc32(chunk.payload);
  const UploadChunk back = UploadChunk::deserialize(chunk.serialize());
  EXPECT_EQ(back.session_id, 42u);
  EXPECT_EQ(back.index, 3u);
  EXPECT_EQ(back.total, 7u);
  EXPECT_EQ(back.payload, chunk.payload);
  EXPECT_EQ(back.crc, chunk.crc);
}

/// CRC-32 register update one bit at a time, straight from the reflected
/// polynomial: an oracle shared with neither the table nor the fold.
std::uint32_t crc32_bitwise(std::uint32_t crc,
                            std::span<const std::uint8_t> data) {
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xedb88320u : 0u);
    }
  }
  return crc;
}

TEST(Chunking, Crc32MatchesBitwiseReference) {
  util::Rng rng(15);
  util::Bytes buffer(70'000 + 16);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.next());
  const std::span<const std::uint8_t> all(buffer);
  const auto matches = [&](std::size_t offset, std::size_t length) {
    const auto data = all.subspan(offset, length);
    return crc32(data) == (crc32_bitwise(0xffffffffu, data) ^ 0xffffffffu);
  };
  // Every length through the short-input loop (< 64), the fold's entry, its
  // 16-byte loop and every tail, at every start alignment.
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t length = 0; length <= 600; ++length) {
      ASSERT_TRUE(matches(offset, length))
          << "offset " << offset << ", length " << length;
    }
  }
  for (int i = 0; i < 300; ++i) {
    const std::size_t offset = rng.uniform_int(16);
    const std::size_t length = rng.uniform_int(70'001);
    ASSERT_TRUE(matches(offset, length))
        << "offset " << offset << ", length " << length;
  }
}

TEST(Chunking, ChunkCrcMatchesBitwiseReference) {
  // The reference runs over the 16 framing bytes, then over the payload from
  // the register the framing left, as chunk_crc's payload pass does.
  util::Rng rng(16);
  for (int i = 0; i < 200; ++i) {
    UploadChunk chunk;
    chunk.session_id = rng.next();
    chunk.index = static_cast<std::uint32_t>(rng.next());
    chunk.total = static_cast<std::uint32_t>(rng.next());
    chunk.payload.resize(rng.uniform_int(8'193));
    for (auto& b : chunk.payload) b = static_cast<std::uint8_t>(rng.next());
    util::ByteWriter framing;
    framing.u64(chunk.session_id);
    framing.u32(chunk.index);
    framing.u32(chunk.total);
    const std::uint32_t expected =
        crc32_bitwise(crc32_bitwise(0xffffffffu, framing.data()),
                      chunk.payload) ^
        0xffffffffu;
    ASSERT_EQ(chunk_crc(chunk), expected)
        << "chunk " << i << ", payload " << chunk.payload.size();
  }
}

// ---------------------------------------------------- Weighting ablations --

TEST(Aggregator, ExampleWeightingOffUsesUniformWeights) {
  // With both weightings off, a heavy client and a light client contribute
  // equally: the mean of +1 (1000 examples) and -1 (1 example) is 0, so the
  // model must not move from the first step's direction asymmetrically.
  for (const bool weighting : {true, false}) {
    Aggregator agg("a");
    auto cfg = async_task(10, 2, 1);
    cfg.example_weighting = weighting;
    cfg.staleness_weighting = false;
    agg.assign_task(cfg, std::vector<float>(1, 0.0f), {.lr = 0.5f});
    agg.client_join("lm", 1, 0.0);
    agg.client_join("lm", 2, 0.0);
    ModelUpdate heavy;
    heavy.client_id = 1;
    heavy.num_examples = 1000;
    heavy.delta = {1.0f};
    ModelUpdate light;
    light.client_id = 2;
    light.num_examples = 1;
    light.delta = {-1.0f};
    agg.client_report("lm", heavy.serialize(), 1.0);
    agg.client_report("lm", light.serialize(), 1.0);
    if (weighting) {
      EXPECT_GT(agg.model("lm")[0], 0.01f);  // heavy client dominates
    } else {
      EXPECT_NEAR(agg.model("lm")[0], 0.0f, 1e-3f);  // exact cancellation
    }
  }
}

// --------------------------------------------------- Differential privacy --

TEST(Aggregator, DpClippingBoundsPerUpdateInfluence) {
  // One malicious client sends a huge delta; with clipping its influence on
  // the model is bounded by clip_norm.
  Aggregator agg("a");
  auto cfg = async_task(10, 1, 2);
  cfg.dp.enabled = true;
  cfg.dp.clip_norm = 0.1f;
  cfg.dp.noise_multiplier = 0.0f;
  agg.assign_task(cfg, std::vector<float>(2, 0.0f), {.lr = 1.0f});
  agg.client_join("lm", 1, 0.0);
  ModelUpdate u;
  u.client_id = 1;
  u.num_examples = 1;
  u.delta = {1e6f, 1e6f};
  agg.client_report("lm", u.serialize(), 1.0);
  // FedAdam normalizes magnitude, but the *pseudo-gradient* fed to it was
  // clipped: verify via a second task without clipping that the buffered
  // mean differs (model trajectories diverge in later steps).  Directly:
  // the clipped mean has norm <= clip_norm; with lr=1 and tau, the step is
  // bounded ~lr.  The key invariant testable here: no NaN/inf and a step
  // of bounded magnitude.
  for (float v : agg.model("lm")) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_LT(std::fabs(v), 2.0f);
  }
}

TEST(Aggregator, DpNoisePerturbsDeterministically) {
  // Same task, same updates: with noise_multiplier > 0 the resulting model
  // differs from the noiseless run but is identical across re-runs (seeded
  // by task name).
  auto run = [](float noise) {
    Aggregator agg("a");
    auto cfg = async_task(10, 1, 4);
    cfg.dp.enabled = true;
    cfg.dp.clip_norm = 1.0f;
    cfg.dp.noise_multiplier = noise;
    agg.assign_task(cfg, std::vector<float>(4, 0.0f), {.lr = 0.1f});
    agg.client_join("lm", 1, 0.0);
    agg.client_report("lm", update_from(1, 0, 4, 0.5f), 1.0);
    return agg.model("lm");
  };
  const auto noiseless = run(0.0f);
  const auto noisy_a = run(1.0f);
  const auto noisy_b = run(1.0f);
  EXPECT_NE(noiseless, noisy_a);
  EXPECT_EQ(noisy_a, noisy_b);
}

TEST(ParallelAggregator, ClipNormAppliedPerUpdate) {
  ParallelAggregator agg(2, /*clip_norm=*/1.0f);
  ModelUpdate big;
  big.client_id = 1;
  big.delta = {30.0f, 40.0f};  // norm 50 -> scaled to norm 1
  agg.enqueue(big.serialize(), 1.0);
  const auto reduced = agg.reduce_and_reset_sums();
  EXPECT_NEAR(ml::norm(reduced.mean_delta), 1.0f, 1e-5f);
  EXPECT_NEAR(reduced.mean_delta[0] / reduced.mean_delta[1], 0.75f, 1e-5f);
}

// ------------------------------------------------- Secure buffered FedBuff --

TEST(SecureBuffer, EndToEndSecureServerStep) {
  Aggregator agg("a");
  auto cfg = async_task(10, 2, 4);
  cfg.secagg_enabled = true;
  cfg.example_weighting = false;  // uniform mean for exact expectation
  agg.assign_task(cfg, std::vector<float>(4, 0.0f), {.lr = 0.1f});

  for (std::uint64_t c = 1; c <= 2; ++c) {
    ASSERT_TRUE(agg.client_join("lm", c, 0.0).accepted);
  }
  const std::vector<float> delta{0.5f, -0.5f, 0.25f, 0.0f};
  ReportResult last;
  for (std::uint64_t c = 1; c <= 2; ++c) {
    const auto upload = agg.secure_upload_config("lm");
    ASSERT_TRUE(upload.has_value());
    const auto report = SecureBufferManager::prepare_report(
        agg.secure_platform("lm"), *upload, c, 0, 10,
        agg.secure_update_weight("lm", 10), delta, c);
    ASSERT_TRUE(report.has_value());
    last = agg.client_report_secure("lm", *report, 1.0);
    EXPECT_EQ(last.outcome, ReportOutcome::kAccepted);
  }
  EXPECT_TRUE(last.server_stepped);
  EXPECT_EQ(agg.model_version("lm"), 1u);
  // Model moved in the delta's direction.
  EXPECT_GT(agg.model("lm")[0], 0.0f);
  EXPECT_LT(agg.model("lm")[1], 0.0f);
}

TEST(SecureBuffer, EpochRotatesAfterRelease) {
  SecureBufferManager manager(4, 1, 77);
  const std::uint64_t first_epoch = manager.epoch();
  const auto upload = manager.next_upload_config();
  ASSERT_TRUE(upload.has_value());
  const auto report = SecureBufferManager::prepare_report(
      manager.platform(), *upload, 1, 0, 5, 1.0,
      std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f}, 1);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(manager.submit(*report, 1.0), SecureSubmitOutcome::kAccepted);
  ASSERT_TRUE(manager.finalize_mean().has_value());
  EXPECT_EQ(manager.epoch(), first_epoch + 1);
  // A contribution prepared against the released epoch is rejected.
  EXPECT_EQ(manager.submit(*report, 1.0), SecureSubmitOutcome::kWrongEpoch);
}

TEST(SecureBuffer, UnencodableUpdateAbortsTheClient) {
  // An element the fixed-point encoding cannot represent (NaN, +-inf, or
  // beyond its budget, directly or after a NaN weight) makes prepare_report
  // return nullopt, as a failed attestation does: no exception escapes and
  // nothing is uploaded.  An in-range update still goes through the TSA.
  SecureBufferManager manager(4, 1, 78);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const auto upload = manager.next_upload_config();
  ASSERT_TRUE(upload.has_value());
  const std::vector<std::pair<std::vector<float>, double>> hostile = {
      {{0.5f, nan, 0.25f, 0.0f}, 1.0},
      {{0.5f, inf, 0.25f, 0.0f}, 1.0},
      {{0.5f, 0.25f, -inf, 0.0f}, 1.0},
      {{0.5f, 0.25f, 0.0f, 1e30f}, 1.0},
      {{0.5f, 0.25f, 0.0f, 0.125f}, std::numeric_limits<double>::quiet_NaN()}};
  for (const auto& [delta, weight] : hostile) {
    std::optional<SecureReport> report;
    EXPECT_NO_THROW(report = SecureBufferManager::prepare_report(
                        manager.platform(), *upload, 1, 0, 5, weight, delta, 1));
    EXPECT_FALSE(report.has_value())
        << delta[0] << " " << delta[1] << " " << delta[2] << " " << delta[3]
        << " weight " << weight;
  }
  const auto report = SecureBufferManager::prepare_report(
      manager.platform(), *upload, 1, 0, 5, 1.0,
      std::vector<float>{0.5f, 0.25f, 0.0f, -0.125f}, 1);
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(manager.submit(*report, 1.0), SecureSubmitOutcome::kAccepted);
  const auto mean = manager.finalize_mean();
  ASSERT_TRUE(mean.has_value());
  EXPECT_NEAR((*mean)[1], 0.25f, 1e-3f);
  EXPECT_NEAR((*mean)[3], -0.125f, 1e-3f);
}

TEST(SecureBuffer, WeightedMeanMatchesPlaintext) {
  // Two clients with different weights: secure mean == weighted plaintext
  // mean within fixed-point resolution.
  SecureBufferManager manager(2, 2, 99);
  const std::vector<float> d1{1.0f, 0.0f}, d2{0.0f, 1.0f};
  const double w1 = 3.0, w2 = 1.0;
  for (const auto& [delta, weight, id] :
       {std::tuple{d1, w1, 1ULL}, std::tuple{d2, w2, 2ULL}}) {
    const auto upload = manager.next_upload_config();
    ASSERT_TRUE(upload.has_value());
    const auto report = SecureBufferManager::prepare_report(
        manager.platform(), *upload, id, 0, 5, weight, delta, id);
    ASSERT_TRUE(report.has_value());
    ASSERT_EQ(manager.submit(*report, weight), SecureSubmitOutcome::kAccepted);
  }
  const auto mean = manager.finalize_mean();
  ASSERT_TRUE(mean.has_value());
  EXPECT_NEAR((*mean)[0], 3.0 / 4.0, 1e-3);
  EXPECT_NEAR((*mean)[1], 1.0 / 4.0, 1e-3);
}

TEST(SecureBuffer, TamperedContributionRejectedAndSlotFreed) {
  // A tampered sealed seed (refused by the TSA) and a masked update of the
  // wrong length (refused at submit) are both discarded.
  for (const bool wrong_length : {false, true}) {
    Aggregator agg("a");
    auto cfg = async_task(5, 2, 4);
    cfg.secagg_enabled = true;
    agg.assign_task(cfg, std::vector<float>(4, 0.0f), {});
    agg.client_join("lm", 1, 0.0);
    const auto upload = agg.secure_upload_config("lm");
    ASSERT_TRUE(upload.has_value());
    auto report = SecureBufferManager::prepare_report(
        agg.secure_platform("lm"), *upload, 1, 0, 10, 1.0,
        std::vector<float>(4, 0.1f), 1);
    ASSERT_TRUE(report.has_value());
    if (wrong_length) {
      report->contribution.masked_update.pop_back();
    } else {
      report->contribution.sealed_seed.ciphertext[16] ^= 1;
    }
    const auto result = agg.client_report_secure("lm", *report, 1.0);
    EXPECT_EQ(result.outcome, ReportOutcome::kRejectedUnknown);
    EXPECT_EQ(agg.active_clients("lm"), 0u);  // slot freed for replacement
    EXPECT_GE(agg.client_demand("lm"), 1);
    EXPECT_EQ(agg.stats("lm").updates_discarded, 1u);
  }
}

TEST(SecureBuffer, MalformedLengthIsRefusedWithoutWedgingTheEpoch) {
  // accept_batch throws on a masked update of the wrong length, so submit()
  // refuses one before the TSA sees it and counts it as rejected; the epoch
  // still releases on the honest reports.
  constexpr std::size_t kModelSize = 6, kGoal = 3;
  SecureBufferManager manager(kModelSize, kGoal, 4321);
  std::uint64_t id = 0;
  const auto next_report = [&] {
    const auto upload = manager.next_upload_config();
    EXPECT_TRUE(upload.has_value());
    ++id;
    auto report = SecureBufferManager::prepare_report(
        manager.platform(), *upload, id, 0, 5, 1.0,
        std::vector<float>(kModelSize, 0.5f), id);
    EXPECT_TRUE(report.has_value());
    return *report;
  };

  // One honest report first, so the malformed ones arrive after a report
  // the epoch has already accepted.
  EXPECT_EQ(manager.submit(next_report(), 1.0),
            SecureSubmitOutcome::kAccepted);
  for (const std::size_t length : {kModelSize - 1, kModelSize + 1}) {
    SecureReport bad = next_report();
    bad.contribution.masked_update.resize(length);
    EXPECT_EQ(manager.submit(bad, 1.0), SecureSubmitOutcome::kMalformed)
        << "length " << length;
  }
  // The honest reports still reach the goal and release their mean.
  for (std::size_t i = 1; i < kGoal; ++i) {
    EXPECT_EQ(manager.submit(next_report(), 1.0),
              SecureSubmitOutcome::kAccepted);
  }
  ASSERT_TRUE(manager.goal_reached());
  const auto mean = manager.finalize_mean();
  ASSERT_TRUE(mean.has_value());
  for (const float v : *mean) EXPECT_NEAR(v, 0.5f, 1e-3f);

  const auto acct = manager.accounting();
  EXPECT_EQ(acct.submitted, kGoal + 2);
  EXPECT_EQ(acct.accepted, kGoal);
  EXPECT_EQ(acct.rejected, 2u);
  EXPECT_EQ(acct.submitted,
            acct.accepted + acct.rejected + acct.wrong_epoch);
  EXPECT_EQ(acct.epochs_released, 1u);
}

TEST(SecureBuffer, ReportThatWeighsNothingIsRefusedAndNeverSteps) {
  // The secure path weights a client by sqrt(num_examples) as well.  After
  // one honest step, two reports that declare zero examples must neither
  // reach the TSA nor fill the goal and step the server on a zero weight.
  Aggregator agg("a");
  auto cfg = async_task(10, 2, 4);
  cfg.secagg_enabled = true;
  agg.assign_task(cfg, std::vector<float>(4, 0.0f), {.lr = 0.1f});
  for (std::uint64_t c = 1; c <= 4; ++c) {
    ASSERT_TRUE(agg.client_join("lm", c, 0.0).accepted);
  }
  const auto report_from = [&](std::uint64_t c, std::size_t examples,
                               float value) {
    const auto upload = agg.secure_upload_config("lm");
    EXPECT_TRUE(upload.has_value());
    auto report = SecureBufferManager::prepare_report(
        agg.secure_platform("lm"), *upload, c, 0, examples,
        agg.secure_update_weight("lm", examples),
        std::vector<float>(4, value), c);
    EXPECT_TRUE(report.has_value());
    return *report;
  };
  (void)agg.client_report_secure("lm", report_from(1, 10, 0.5f), 1.0);
  ASSERT_TRUE(agg.client_report_secure("lm", report_from(2, 10, 0.5f), 1.0)
                  .server_stepped);
  const std::vector<float> stepped = agg.model("lm");
  for (std::uint64_t c = 3; c <= 4; ++c) {
    const ReportResult r =
        agg.client_report_secure("lm", report_from(c, 0, 1e30f), 2.0);
    EXPECT_EQ(r.outcome, ReportOutcome::kRejectedUnknown);
    EXPECT_FALSE(r.server_stepped);
  }
  EXPECT_EQ(agg.model_version("lm"), 1u);
  EXPECT_EQ(agg.model("lm"), stepped);
  const TaskStats& stats = agg.stats("lm");
  EXPECT_EQ(stats.server_steps, 1u);
  EXPECT_EQ(stats.updates_applied, 2u);
  EXPECT_EQ(stats.updates_discarded, 2u);
  expect_all_accounted(stats);
  EXPECT_EQ(agg.active_clients("lm"), 0u);
}

TEST(SecureBuffer, BatchedRejectionFreesSyncRoundSlot) {
  // A report the TSA rejects never completes its SyncFL slot, so round
  // demand frees up for a replacement.  aggregation_batch_size is read by
  // nothing; at 2 the rejection still lands at its own report.
  Aggregator agg("a");
  TaskConfig cfg;
  cfg.name = "lm";
  cfg.mode = TrainingMode::kSync;
  cfg.concurrency = 4;
  cfg.aggregation_goal = 2;
  cfg.model_size = 4;
  cfg.secagg_enabled = true;
  cfg.aggregation_batch_size = 2;
  cfg.example_weighting = false;
  agg.assign_task(cfg, std::vector<float>(4, 0.0f), {});

  for (std::uint64_t c = 1; c <= 2; ++c) {
    ASSERT_TRUE(agg.client_join("lm", c, 0.0).accepted);
  }
  const std::vector<float> delta(4, 0.25f);
  for (std::uint64_t c = 1; c <= 2; ++c) {
    const auto upload = agg.secure_upload_config("lm");
    ASSERT_TRUE(upload.has_value());
    auto report = SecureBufferManager::prepare_report(
        agg.secure_platform("lm"), *upload, c, 0, 10, 1.0, delta, c);
    ASSERT_TRUE(report.has_value());
    if (c == 2) report->contribution.sealed_seed.ciphertext[7] ^= 1;
    agg.client_report_secure("lm", *report, 1.0);
  }
  // The tampered report was rejected: one completion stands, demand =
  // concurrency - completed - active = 4 - 1 - 0 = 3, and the rejection is
  // visible as a discarded update.
  EXPECT_EQ(agg.stats("lm").updates_discarded, 1u);
  EXPECT_EQ(agg.client_demand("lm"), 3);
  EXPECT_EQ(agg.model_version("lm"), 0u);  // goal not yet reached

  // A replacement client can join, complete, and finish the round.
  ASSERT_TRUE(agg.client_join("lm", 3, 0.0).accepted);
  const auto upload = agg.secure_upload_config("lm");
  ASSERT_TRUE(upload.has_value());
  const auto report = SecureBufferManager::prepare_report(
      agg.secure_platform("lm"), *upload, 3, 0, 10, 1.0, delta, 3);
  ASSERT_TRUE(report.has_value());
  const auto result = agg.client_report_secure("lm", *report, 1.0);
  EXPECT_TRUE(result.server_stepped);
  EXPECT_EQ(agg.model_version("lm"), 1u);
}

TEST(SecureBuffer, EachReportReturnsItsOwnTsaVerdict) {
  // The TSA's verdict on a report is final when client_report_secure
  // returns: a refused contribution is never reported accepted, and it
  // frees its SyncFL slot at that same call.  aggregation_batch_size is read
  // by nothing; setting it to 3 pins that no setting defers a verdict.
  Aggregator agg("a");
  TaskConfig cfg;
  cfg.name = "lm";
  cfg.mode = TrainingMode::kSync;
  cfg.concurrency = 4;
  cfg.aggregation_goal = 4;
  cfg.model_size = 4;
  cfg.secagg_enabled = true;
  cfg.aggregation_batch_size = 3;
  cfg.example_weighting = false;
  agg.assign_task(cfg, std::vector<float>(4, 0.0f), {});

  for (std::uint64_t c = 1; c <= 3; ++c) {
    ASSERT_TRUE(agg.client_join("lm", c, 0.0).accepted);
  }
  // demand = concurrency - completed - active = 4 - 0 - 3 = 1.
  ASSERT_EQ(agg.client_demand("lm"), 1);
  // Reports 1 and 3 are tampered.  A refused report leaves the active set
  // without completing a slot, so demand rises by one at its own call; an
  // accepted one moves from active to completed, so demand holds.
  const std::vector<ReportOutcome> expected_outcomes{
      ReportOutcome::kRejectedUnknown, ReportOutcome::kAccepted,
      ReportOutcome::kRejectedUnknown};
  const std::vector<std::int64_t> expected_demand{2, 2, 3};
  const std::vector<std::uint64_t> expected_discarded{1, 1, 2};
  for (std::uint64_t c = 1; c <= 3; ++c) {
    const auto upload = agg.secure_upload_config("lm");
    ASSERT_TRUE(upload.has_value());
    auto report = SecureBufferManager::prepare_report(
        agg.secure_platform("lm"), *upload, c, 0, 10, 1.0,
        std::vector<float>(4, 0.25f), c);
    ASSERT_TRUE(report.has_value());
    if (c != 2) report->contribution.sealed_seed.ciphertext[7] ^= 1;
    EXPECT_EQ(agg.client_report_secure("lm", *report, 1.0).outcome,
              expected_outcomes[c - 1])
        << "report " << c;
    EXPECT_EQ(agg.client_demand("lm"), expected_demand[c - 1])
        << "report " << c;
    EXPECT_EQ(agg.stats("lm").updates_discarded, expected_discarded[c - 1])
        << "report " << c;
  }
  EXPECT_EQ(agg.model_version("lm"), 0u);  // one of four accepted
}

TEST(SecureBuffer, BatchedEndToEndThroughAggregator) {
  // The Aggregator path at an aggregation_batch_size above 1, which nothing
  // reads: every report is accepted at its own call, and the server steps
  // when the goal's worth of verified contributions lands.
  Aggregator agg("a");
  auto cfg = async_task(10, 3, 4);
  cfg.secagg_enabled = true;
  cfg.aggregation_batch_size = 2;
  cfg.example_weighting = false;
  agg.assign_task(cfg, std::vector<float>(4, 0.0f), {.lr = 0.1f});

  for (std::uint64_t c = 1; c <= 3; ++c) {
    ASSERT_TRUE(agg.client_join("lm", c, 0.0).accepted);
  }
  const std::vector<float> delta{0.5f, -0.5f, 0.25f, 0.0f};
  ReportResult last;
  for (std::uint64_t c = 1; c <= 3; ++c) {
    const auto upload = agg.secure_upload_config("lm");
    ASSERT_TRUE(upload.has_value());
    const auto report = SecureBufferManager::prepare_report(
        agg.secure_platform("lm"), *upload, c, 0, 10,
        agg.secure_update_weight("lm", 10), delta, c);
    ASSERT_TRUE(report.has_value());
    last = agg.client_report_secure("lm", *report, 1.0);
    EXPECT_EQ(last.outcome, ReportOutcome::kAccepted);
  }
  EXPECT_TRUE(last.server_stepped);
  EXPECT_EQ(agg.model_version("lm"), 1u);
  EXPECT_GT(agg.model("lm")[0], 0.0f);
  EXPECT_LT(agg.model("lm")[1], 0.0f);
}

// ---------------------------------------------------------- Client runtime --

TEST(Eligibility, RequiresIdleChargingUnmetered) {
  const EligibilityPolicy policy;
  DeviceConditions ok;
  EXPECT_TRUE(policy.eligible(ok, std::nullopt, 0.0));
  for (auto* flag : {&ok.idle, &ok.charging, &ok.unmetered_network}) {
    DeviceConditions bad = ok;
    // Flip one condition off via pointer arithmetic on the copy.
    if (flag == &ok.idle) bad.idle = false;
    if (flag == &ok.charging) bad.charging = false;
    if (flag == &ok.unmetered_network) bad.unmetered_network = false;
    EXPECT_FALSE(policy.eligible(bad, std::nullopt, 0.0));
  }
}

TEST(Eligibility, MinParticipationIntervalEnforced) {
  EligibilityPolicy policy;
  policy.min_participation_interval_s = 100.0;
  const DeviceConditions ok;
  EXPECT_TRUE(policy.eligible(ok, std::nullopt, 0.0));
  EXPECT_FALSE(policy.eligible(ok, 0.0, 50.0));
  EXPECT_TRUE(policy.eligible(ok, 0.0, 150.0));
}

TEST(ExampleStore, RetentionPolicyCapsExamples) {
  ml::CorpusConfig ccfg;
  ml::FederatedCorpus corpus(ccfg, 1);
  ExampleStore store(corpus.client_dataset(0, 100), 10);
  EXPECT_LE(store.num_train_examples(), 10u);
}

TEST(ExampleStore, AgePolicyPurgesOldExamples) {
  RetentionPolicy policy;
  policy.max_age_s = 100.0;
  ExampleStore store(policy);
  store.add_example({1, 2, 3}, 0.0);
  store.add_example({4, 5, 6}, 50.0);
  EXPECT_EQ(store.num_train_examples(), 2u);
  // Ingestion at t=120 sweeps the store: the first example (age 120) is
  // already past the 100 s cap and is purged on the spot.
  store.add_example({7, 8, 9}, 120.0);
  EXPECT_EQ(store.num_train_examples(), 2u);
  EXPECT_EQ(store.dataset().train.front(), (ml::Sequence{4, 5, 6}));
  // At t=130 the survivors are aged 80 and 10 — nothing to purge yet.
  EXPECT_EQ(store.purge(130.0), 0u);
  // Much later everything is expired.
  EXPECT_EQ(store.purge(1000.0), 2u);
  EXPECT_EQ(store.num_train_examples(), 0u);
}

TEST(ExampleStore, CountCapEvictsOldestFirst) {
  RetentionPolicy policy;
  policy.max_examples = 2;
  ExampleStore store(policy);
  store.add_example({1}, 0.0);
  store.add_example({2}, 1.0);
  store.add_example({3}, 2.0);  // evicts {1}
  ASSERT_EQ(store.num_train_examples(), 2u);
  EXPECT_EQ(store.dataset().train[0], (ml::Sequence{2}));
  EXPECT_EQ(store.dataset().train[1], (ml::Sequence{3}));
}

TEST(ExampleStore, UseBudgetRetiresExamples) {
  RetentionPolicy policy;
  policy.max_uses = 2;
  ExampleStore store(policy);
  store.add_example({1, 2}, 0.0);
  store.record_training_use(1.0);
  EXPECT_EQ(store.num_train_examples(), 1u);
  // Second use exhausts the budget; the example is retired.
  store.record_training_use(2.0);
  EXPECT_EQ(store.num_train_examples(), 0u);
}

TEST(ExampleStore, FreshExamplesOutliveUsedOnes) {
  RetentionPolicy policy;
  policy.max_uses = 2;
  ExampleStore store(policy);
  store.add_example({1}, 0.0);
  store.record_training_use(1.0);   // {1} at 1 use
  store.add_example({2}, 2.0);      // fresh
  store.record_training_use(3.0);   // {1} retired at 2 uses; {2} at 1 use
  ASSERT_EQ(store.num_train_examples(), 1u);
  EXPECT_EQ(store.dataset().train.front(), (ml::Sequence{2}));
}

TEST(ExampleStore, UseBudgetBoundaryExactlyExhausted) {
  // An example with max_uses = 3 must survive uses 1 and 2 and retire on
  // exactly the third — off-by-one here silently halves or doubles every
  // client's effective data budget.
  RetentionPolicy policy;
  policy.max_uses = 3;
  ExampleStore store(policy);
  store.add_example({1, 2}, 0.0);
  store.record_training_use(1.0);
  EXPECT_EQ(store.num_train_examples(), 1u);  // 1 use: within budget
  store.record_training_use(2.0);
  EXPECT_EQ(store.num_train_examples(), 1u);  // 2 uses: still within budget
  store.record_training_use(3.0);
  EXPECT_EQ(store.num_train_examples(), 0u);  // 3rd use exhausts it exactly
}

TEST(ExampleStore, AgeBoundaryAtPurgeTimeIsInclusive) {
  // The policy retires examples *older* than max_age_s: an example whose
  // age equals the cap exactly at purge time is still retained (strict >).
  RetentionPolicy policy;
  policy.max_age_s = 100.0;
  ExampleStore store(policy);
  store.add_example({1}, 0.0);
  EXPECT_EQ(store.purge(100.0), 0u);  // age == cap: keep
  EXPECT_EQ(store.num_train_examples(), 1u);
  EXPECT_EQ(store.purge(100.5), 1u);  // age > cap: purge
  EXPECT_EQ(store.num_train_examples(), 0u);
}

TEST(ExampleStore, CountCapEvictsInStrictIngestionOrder) {
  RetentionPolicy policy;
  policy.max_examples = 3;
  ExampleStore store(policy);
  for (std::int32_t i = 0; i < 6; ++i) {
    store.add_example({i}, static_cast<double>(i));
  }
  // Six ingested through a cap of three: the three oldest are gone, the
  // survivors keep ingestion order.
  ASSERT_EQ(store.num_train_examples(), 3u);
  EXPECT_EQ(store.dataset().train[0], (ml::Sequence{3}));
  EXPECT_EQ(store.dataset().train[1], (ml::Sequence{4}));
  EXPECT_EQ(store.dataset().train[2], (ml::Sequence{5}));
}

TEST(Eligibility, ParticipationExactlyAtIntervalBoundary) {
  EligibilityPolicy policy;
  policy.min_participation_interval_s = 100.0;
  const DeviceConditions ok;
  // Exactly at the interval: eligible (the policy is a >= bound).
  EXPECT_TRUE(policy.eligible(ok, 50.0, 150.0));
  // One tick short: still blocked.
  EXPECT_FALSE(policy.eligible(ok, 50.0, 149.999));
  // Zero interval: an immediate repeat participation is allowed.
  EligibilityPolicy zero;
  EXPECT_TRUE(zero.eligible(ok, 10.0, 10.0));
}

TEST(Eligibility, EachConditionFlagIndividuallyBlocksCheckIn) {
  // Through the ClientRuntime check-in path, not just the bare policy:
  // each DeviceConditions flag on its own must block participation.
  const EligibilityPolicy policy;
  ClientRuntime runtime(1, ExampleStore{RetentionPolicy{}});
  ASSERT_TRUE(runtime.check_in_allowed(policy, 0.0));

  runtime.conditions() = {.idle = false, .charging = true,
                          .unmetered_network = true};
  EXPECT_FALSE(runtime.check_in_allowed(policy, 0.0));
  runtime.conditions() = {.idle = true, .charging = false,
                          .unmetered_network = true};
  EXPECT_FALSE(runtime.check_in_allowed(policy, 0.0));
  runtime.conditions() = {.idle = true, .charging = true,
                          .unmetered_network = false};
  EXPECT_FALSE(runtime.check_in_allowed(policy, 0.0));
  runtime.conditions() = {.idle = true, .charging = true,
                          .unmetered_network = true};
  EXPECT_TRUE(runtime.check_in_allowed(policy, 0.0));
}

TEST(ExampleStore, BulkLoadStartsWithZeroUses) {
  ml::CorpusConfig ccfg;
  ml::FederatedCorpus corpus(ccfg, 4);
  ExampleStore store(corpus.client_dataset(0, 20), 1000);
  const std::size_t n = store.num_train_examples();
  ASSERT_GT(n, 0u);
  // Default policy has no use cap; uses accumulate harmlessly.
  store.record_training_use(1.0);
  EXPECT_EQ(store.num_train_examples(), n);
}

// ----------------------------------------------------------- Model store ----

TEST(ModelStore, UnconstrainedStoreIsNearlyInstant) {
  ModelStore store({});
  EXPECT_DOUBLE_EQ(store.publish(1, 20'000'000, 5.0), 5.0);
  EXPECT_EQ(store.visible_version(5.0), 1u);
}

TEST(ModelStore, WriteTimeFollowsBandwidthAndLatency) {
  ModelStore store({10.0 * 1e6, 0.5});  // 10 MB/s + 500 ms commit
  const double visible_at = store.publish(1, 20'000'000, 0.0);
  EXPECT_DOUBLE_EQ(visible_at, 2.5);  // 2 s transfer + 0.5 s commit
  EXPECT_EQ(store.visible_version(2.0), 0u);
  EXPECT_EQ(store.visible_version(2.5), 1u);
}

TEST(ModelStore, WritesSerializeAndStallIsAccounted) {
  ModelStore store({10.0 * 1e6, 0.0});  // 1 s per 10 MB write
  EXPECT_DOUBLE_EQ(store.publish(1, 10'000'000, 0.0), 1.0);
  // Requested at 0.2 but the store is busy until 1.0: 0.8 s stall.
  EXPECT_DOUBLE_EQ(store.publish(2, 10'000'000, 0.2), 2.0);
  EXPECT_DOUBLE_EQ(store.stats().stall_s, 0.8);
  EXPECT_EQ(store.stats().writes, 2u);
  EXPECT_EQ(store.stats().bytes_written, 20'000'000u);
  // Visibility follows completion times, not request times.
  EXPECT_EQ(store.visible_version(0.9), 0u);
  EXPECT_EQ(store.visible_version(1.5), 1u);
  EXPECT_EQ(store.visible_version(2.0), 2u);
}

TEST(ModelStore, IdleStoreDoesNotStall) {
  ModelStore store({10.0 * 1e6, 0.0});
  (void)store.publish(1, 10'000'000, 0.0);
  (void)store.publish(2, 10'000'000, 10.0);  // long after the first finished
  EXPECT_DOUBLE_EQ(store.stats().stall_s, 0.0);
}

TEST(ModelStore, VersionsMustIncrease) {
  ModelStore store({});
  (void)store.publish(2, 100, 0.0);
  EXPECT_THROW(store.publish(2, 100, 1.0), std::invalid_argument);
  EXPECT_THROW(store.publish(1, 100, 1.0), std::invalid_argument);
}

TEST(ModelStore, MinPublishIntervalIsTheSec73Ceiling) {
  ModelStore store({20.0 * 1e6, 0.05});
  EXPECT_DOUBLE_EQ(store.min_publish_interval_s(20'000'000), 1.05);
}

TEST(ModelStore, InvalidConfigRejected) {
  EXPECT_THROW(ModelStore({0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(ModelStore({-1.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(ModelStore({1.0, -0.1}), std::invalid_argument);
}

// ------------------------------------------------- Staleness schemes --------

TEST(StalenessScheme, AllSchemesAreOneAtZeroStaleness) {
  for (const auto scheme :
       {StalenessScheme::kInverseSqrt, StalenessScheme::kConstant,
        StalenessScheme::kInversePoly, StalenessScheme::kHinge}) {
    EXPECT_DOUBLE_EQ(staleness_weight(scheme, 0), 1.0) << to_string(scheme);
  }
}

TEST(StalenessScheme, InverseSqrtMatchesLegacyFunction) {
  for (const std::uint64_t s : {0ULL, 1ULL, 3ULL, 10ULL, 99ULL}) {
    EXPECT_DOUBLE_EQ(staleness_weight(StalenessScheme::kInverseSqrt, s),
                     staleness_weight(s));
  }
}

TEST(StalenessScheme, ConstantIgnoresStaleness) {
  EXPECT_DOUBLE_EQ(staleness_weight(StalenessScheme::kConstant, 1000000), 1.0);
}

TEST(StalenessScheme, InversePolyExponentControlsDecay) {
  StalenessParams half{.exponent = 0.5};
  StalenessParams one{.exponent = 1.0};
  // a = 0.5 coincides with inverse-sqrt; a = 1 decays faster.
  EXPECT_DOUBLE_EQ(staleness_weight(StalenessScheme::kInversePoly, 3, half),
                   0.5);
  EXPECT_DOUBLE_EQ(staleness_weight(StalenessScheme::kInversePoly, 3, one),
                   0.25);
  EXPECT_LT(staleness_weight(StalenessScheme::kInversePoly, 10, one),
            staleness_weight(StalenessScheme::kInversePoly, 10, half));
}

TEST(StalenessScheme, HingeIsFlatUpToCutoff) {
  StalenessParams p{.hinge_cutoff = 10, .hinge_slope = 0.5};
  EXPECT_DOUBLE_EQ(staleness_weight(StalenessScheme::kHinge, 10, p), 1.0);
  EXPECT_DOUBLE_EQ(staleness_weight(StalenessScheme::kHinge, 12, p), 0.5);
  EXPECT_LT(staleness_weight(StalenessScheme::kHinge, 100, p), 0.05);
}

TEST(StalenessScheme, AllSchemesMonotoneNonIncreasing) {
  const StalenessParams p;
  for (const auto scheme :
       {StalenessScheme::kInverseSqrt, StalenessScheme::kConstant,
        StalenessScheme::kInversePoly, StalenessScheme::kHinge}) {
    double prev = 1.0;
    for (std::uint64_t s = 0; s <= 50; ++s) {
      const double w = staleness_weight(scheme, s, p);
      EXPECT_LE(w, prev) << to_string(scheme) << " at s=" << s;
      EXPECT_GT(w, 0.0);
      prev = w;
    }
  }
}

TEST(StalenessScheme, AggregatorHonoursConfiguredScheme) {
  // Two aggregators differing only in scheme: under kConstant a stale
  // update contributes at full weight, so the resulting models differ.
  auto run_with = [](StalenessScheme scheme) {
    Aggregator agg("a");
    TaskConfig cfg;
    cfg.name = "t";
    cfg.mode = TrainingMode::kAsync;
    cfg.concurrency = 8;
    cfg.aggregation_goal = 2;
    cfg.model_size = 1;
    cfg.example_weighting = false;
    cfg.staleness_scheme = scheme;
    agg.assign_task(cfg, std::vector<float>(1, 0.0f),
                    ml::ServerOptimizerConfig{
                        .kind = ml::ServerOptimizerKind::kFedSgd, .lr = 1.0f});
    // Client 1 trains from version 0 but reports late (staleness 1);
    // clients 2 and 3 are fresh and complete the first goal.
    EXPECT_TRUE(agg.client_join("t", 1, 0.0).accepted);
    EXPECT_TRUE(agg.client_join("t", 2, 0.0).accepted);
    EXPECT_TRUE(agg.client_join("t", 3, 0.0).accepted);
    auto mk = [](std::uint64_t id, std::uint64_t version, float d) {
      ModelUpdate u;
      u.client_id = id;
      u.initial_version = version;
      u.num_examples = 4;
      u.delta = {d};
      return u.serialize();
    };
    (void)agg.client_report("t", mk(2, 0, 1.0f), 1.0);
    (void)agg.client_report("t", mk(3, 0, 1.0f), 1.5);  // version -> 1
    EXPECT_TRUE(agg.client_join("t", 4, 2.0).accepted);
    (void)agg.client_report("t", mk(1, 0, 8.0f), 2.5);  // staleness 1
    const auto r = agg.client_report("t", mk(4, 1, 0.0f), 3.0);
    EXPECT_TRUE(r.server_stepped);
    return agg.model("t")[0];
  };
  const float constant = run_with(StalenessScheme::kConstant);
  const float inv_sqrt = run_with(StalenessScheme::kInverseSqrt);
  // Constant weighting lets the stale 8.0 delta pull the mean up harder.
  EXPECT_GT(constant, inv_sqrt);
}

TEST(Executor, ProducesDeltaThatReducesLocalLoss) {
  ml::LmConfig mcfg;
  mcfg.vocab_size = 16;
  mcfg.embed_dim = 8;
  mcfg.hidden_dim = 12;
  mcfg.context = 2;
  util::Rng rng(31);
  auto model = ml::make_mlp_lm(mcfg, rng);
  const std::vector<float> global(model->params().begin(),
                                  model->params().end());

  ml::CorpusConfig ccfg;
  ccfg.vocab_size = 16;
  ml::FederatedCorpus corpus(ccfg, 2);
  ExampleStore store(corpus.client_dataset(0, 30), 1000);

  TrainerConfig tcfg;
  tcfg.learning_rate = 0.3f;
  tcfg.epochs = 3;
  Executor executor(model->clone(), tcfg);
  util::Rng train_rng(32);
  const LocalTrainingResult result =
      executor.train(global, 7, 99, store, train_rng);

  EXPECT_EQ(result.update.client_id, 99u);
  EXPECT_EQ(result.update.initial_version, 7u);
  EXPECT_EQ(result.update.num_examples, store.num_train_examples());
  EXPECT_EQ(result.update.delta.size(), global.size());

  // delta = trained - initial: the global model plus the delta has a lower
  // loss on the client's training set than the global model.
  const double initial_loss = model->loss(store.dataset().train, {});
  auto check = model->clone();
  for (std::size_t i = 0; i < global.size(); ++i) {
    check->params()[i] = global[i] + result.update.delta[i];
  }
  EXPECT_LT(check->loss(store.dataset().train, {}), initial_loss);
}

TEST(Executor, EmptyStoreYieldsZeroDelta) {
  ml::LmConfig mcfg;
  mcfg.vocab_size = 8;
  util::Rng rng(33);
  auto model = ml::make_mlp_lm(mcfg, rng);
  const std::vector<float> global(model->params().begin(),
                                  model->params().end());
  Executor executor(model->clone(), {});
  ExampleStore empty_store;
  util::Rng train_rng(34);
  const auto result = executor.train(global, 0, 1, empty_store, train_rng);
  for (float v : result.update.delta) EXPECT_EQ(v, 0.0f);
}

TEST(Executor, DeterministicGivenSameRngSeed) {
  ml::LmConfig mcfg;
  mcfg.vocab_size = 16;
  util::Rng rng(35);
  auto model = ml::make_mlp_lm(mcfg, rng);
  const std::vector<float> global(model->params().begin(),
                                  model->params().end());
  ml::CorpusConfig ccfg;
  ccfg.vocab_size = 16;
  ml::FederatedCorpus corpus(ccfg, 3);
  ExampleStore store(corpus.client_dataset(0, 20), 1000);
  Executor executor(model->clone(), {});

  util::Rng r1(77), r2(77);
  const auto a = executor.train(global, 0, 1, store, r1);
  const auto b = executor.train(global, 0, 1, store, r2);
  EXPECT_EQ(a.update.delta, b.update.delta);
}

}  // namespace
}  // namespace papaya::fl
