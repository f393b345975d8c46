// Tests for the aggregation pool's one fold: the UpdateView wire parser, a
// single-worker pool against a reference fold written out here (bit for
// bit, with and without clipping, at several drain batches), drops of
// malformed and non-finite updates, the conservation hammers on
// multi-worker pools under concurrent enqueue and reduce, the AggStats
// counters, the sharded reduce against its own reference and against a
// single pool, and registration-time shard normalization.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "fl/aggregator.hpp"
#include "fl/model_update.hpp"
#include "fl/parallel_agg.hpp"
#include "fl/sharded_agg.hpp"
#include "ml/math.hpp"

namespace papaya::fl {
namespace detail {
// UpdateView::fold_finite's portable and AVX2 builds (src/fl/parallel_agg.cpp);
// fold_finite itself takes the AVX2 one on a CPU that has it.
bool fold_finite_portable(float* out, const float* acc, const UpdateView& view,
                          float w);
#if defined(__x86_64__)
bool fold_finite_avx2(float* out, const float* acc, const UpdateView& view,
                      float w);
#endif
}  // namespace detail

namespace {

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

/// A varied update with element `size / 2` replaced by `bad`.
util::Bytes make_poisoned_update(std::uint64_t client, std::size_t size,
                                 float bad) {
  ModelUpdate u = ModelUpdate::deserialize(make_varied_update(client, size));
  u.delta[size / 2] = bad;
  return u.serialize();
}

std::vector<std::uint32_t> bits_of(const std::vector<float>& values) {
  std::vector<std::uint32_t> out(values.size());
  std::memcpy(out.data(), values.data(), values.size() * sizeof(float));
  return out;
}

struct WeightedUpdate {
  util::Bytes bytes;
  double weight = 0.0;
};

/// Raw weighted sums of `updates` folded one after another, the way one
/// pool worker folds them: acc[i] += float(w) * x[i] from zeros, each delta
/// first clipped to `clip_norm` when that is > 0.
AggReduced reference_sums(const std::vector<WeightedUpdate>& updates,
                          std::size_t model, float clip_norm) {
  AggReduced out;
  out.mean_delta.assign(model, 0.0f);
  for (const auto& [bytes, weight] : updates) {
    ModelUpdate u = ModelUpdate::deserialize(bytes);
    if (clip_norm > 0.0f && !ml::clip_norm(u.delta, clip_norm)) continue;
    const float w = static_cast<float>(weight);
    for (std::size_t i = 0; i < model; ++i) out.mean_delta[i] += w * u.delta[i];
    out.weight_sum += weight;
    ++out.count;
  }
  return out;
}

/// Normalize raw sums the way reduce_and_reset() does.
AggReduced normalized(AggReduced sums) {
  if (sums.weight_sum > 0.0) {
    const float inv = static_cast<float>(1.0 / sums.weight_sum);
    for (auto& v : sums.mean_delta) v *= inv;
  }
  return sums;
}

void expect_bit_identical(const AggReduced& got, const AggReduced& want) {
  EXPECT_EQ(bits_of(got.mean_delta), bits_of(want.mean_delta));
  EXPECT_EQ(got.weight_sum, want.weight_sum);
  EXPECT_EQ(got.count, want.count);
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

using FoldFinite = bool (*)(float*, const float*, const UpdateView&, float);

/// The fold_finite builds this CPU runs: portable, and AVX2 where it has it.
std::vector<FoldFinite> fold_finite_builds() {
  std::vector<FoldFinite> builds = {detail::fold_finite_portable};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) builds.push_back(detail::fold_finite_avx2);
#endif
  return builds;
}

TEST(UpdateView, FoldFiniteSumsOrFlagsNaNAndInfinity) {
  constexpr std::size_t kModel = 37;  // odd, exercises non-vector tails
  constexpr float kMax = std::numeric_limits<float>::max();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const std::vector<float> acc(kModel, 0.25f);
  const std::vector<float> acc_at_max(kModel, kMax);
  std::vector<float> out(kModel);
  const float specials[] = {std::nanf(""), -std::nanf(""), kInf, -kInf};
  // The largest finite values, a denormal and -0 are finite, and each sum
  // is acc[i] + w * x[i].
  ModelUpdate finite = ModelUpdate::deserialize(make_varied_update(3, kModel));
  finite.delta[1] = std::numeric_limits<float>::max();
  finite.delta[2] = -std::numeric_limits<float>::max();
  finite.delta[3] = std::numeric_limits<float>::denorm_min();
  finite.delta[4] = -0.0f;
  const util::Bytes finite_bytes = finite.serialize();
  std::vector<float> want(kModel);
  for (std::size_t i = 0; i < kModel; ++i) {
    want[i] = acc[i] + 0.75f * finite.delta[i];
  }
  // Every element finite, but a sum overflows: FLT_MAX at weight 2, or at
  // weight 1 onto an accumulator already at FLT_MAX.  At weight 1 onto
  // 0.25 the sums round back to FLT_MAX and stay finite.
  ModelUpdate big;
  big.delta.assign(kModel, 0.5f);
  big.delta[kModel / 2] = kMax;
  big.delta[kModel - 1] = -kMax;
  const util::Bytes big_bytes = big.serialize();
  for (const FoldFinite fold : fold_finite_builds()) {
    for (const float bad : specials) {
      for (const std::size_t at : {std::size_t{0}, kModel / 2, kModel - 1}) {
        ModelUpdate u;
        u.delta.assign(kModel, 0.5f);
        u.delta[at] = bad;
        const util::Bytes bytes = u.serialize();
        const auto view = UpdateView::parse(bytes, kModel);
        ASSERT_TRUE(view.has_value());
        // A zero weight does not hide it: 0 * inf and 0 * NaN are NaN.
        for (const float w : {2.0f, 0.0f}) {
          EXPECT_FALSE(fold(out.data(), acc.data(), *view, w))
              << bad << " at " << at << " weight " << w;
        }
      }
    }
    const auto big_view = UpdateView::parse(big_bytes, kModel);
    ASSERT_TRUE(big_view.has_value());
    EXPECT_FALSE(fold(out.data(), acc.data(), *big_view, 2.0f));
    EXPECT_FALSE(fold(out.data(), acc_at_max.data(), *big_view, 1.0f));
    EXPECT_TRUE(fold(out.data(), acc.data(), *big_view, 1.0f));
    const auto view = UpdateView::parse(finite_bytes, kModel);
    ASSERT_TRUE(view.has_value());
    // A non-finite weight makes every sum non-finite.
    EXPECT_FALSE(fold(out.data(), acc.data(), *view, kInf));
    EXPECT_FALSE(fold(out.data(), acc.data(), *view, std::nanf("")));
    ASSERT_TRUE(fold(out.data(), acc.data(), *view, 0.75f));
    EXPECT_EQ(bits_of(out), bits_of(want));
  }
}

// ------------------------------------------ One worker: the reference fold --

TEST(OneFold, SingleWorkerUnclippedFoldMatchesReferenceBitForBit) {
  constexpr std::size_t kModel = 257;  // odd, exercises non-aligned tails
  std::vector<WeightedUpdate> updates;
  for (std::uint64_t c = 0; c < 32; ++c) {
    updates.push_back({make_varied_update(c, kModel), 0.25 + 0.5 * (c % 4)});
  }
  const AggReduced want = normalized(reference_sums(updates, kModel, 0.0f));
  for (const std::size_t batch : {1u, 3u, 5u}) {
    ParallelAggregator agg(kModel, /*num_threads=*/1, /*clip_norm=*/0.0f,
                           batch);
    for (const auto& [bytes, weight] : updates) agg.enqueue(bytes, weight);
    SCOPED_TRACE(batch);
    expect_bit_identical(agg.reduce_and_reset(), want);
  }
}

TEST(OneFold, SingleWorkerClippedFoldMatchesReferenceBitForBit) {
  constexpr std::size_t kModel = 96;
  constexpr float kClip = 0.5f;
  std::vector<WeightedUpdate> updates;
  for (std::uint64_t c = 0; c < 12; ++c) {
    updates.push_back({make_varied_update(c, kModel), 1.0 + c});
  }
  const AggReduced want = normalized(reference_sums(updates, kModel, kClip));
  for (const std::size_t batch : {1u, 5u}) {
    ParallelAggregator agg(kModel, /*num_threads=*/1, kClip, batch);
    for (const auto& [bytes, weight] : updates) agg.enqueue(bytes, weight);
    SCOPED_TRACE(batch);
    expect_bit_identical(agg.reduce_and_reset(), want);
  }
}

// ----------------------------------------------------------------- Drops --

TEST(OneFold, ClippedFoldsDropNonFiniteUpdates) {
  // Clipping cannot make a NaN or an infinity finite (max / inf is 0, and
  // inf * 0 is NaN), so the fold drops such an update as malformed: the
  // honest updates reduce to exactly what they reduce to alone.
  constexpr std::size_t kModel = 96;
  ParallelAggregator honest(kModel, 1, /*clip_norm=*/0.5f);
  ParallelAggregator mixed(kModel, 1, /*clip_norm=*/0.5f);
  for (std::uint64_t c = 0; c < 12; ++c) {
    honest.enqueue(make_varied_update(c, kModel), 1.0 + c);
    mixed.enqueue(make_varied_update(c, kModel), 1.0 + c);
    if (c == 3) mixed.enqueue(make_poisoned_update(100, kModel, std::nanf("")), 2.0);
    if (c == 7) {
      mixed.enqueue(make_poisoned_update(
                        101, kModel, std::numeric_limits<float>::infinity()),
                    2.0);
    }
  }
  const auto want = honest.reduce_and_reset();
  const auto got = mixed.reduce_and_reset();
  expect_bit_identical(got, want);
  EXPECT_EQ(got.count, 12u);
  EXPECT_EQ(mixed.stats_snapshot().dropped, 2u);
  // The clip bounds the delta but not the weight: an infinite weight makes
  // every sum of its fold non-finite.
  ParallelAggregator heavy(kModel, 1, /*clip_norm=*/0.5f);
  for (std::uint64_t c = 0; c < 12; ++c) {
    heavy.enqueue(make_varied_update(c, kModel), 1.0 + c);
    if (c == 5) {
      heavy.enqueue(make_varied_update(102, kModel),
                    std::numeric_limits<double>::infinity());
    }
  }
  expect_bit_identical(heavy.reduce_and_reset(), want);
  EXPECT_EQ(heavy.stats_snapshot().dropped, 1u);
}

TEST(OneFold, UnclippedFoldsDropNonFiniteUpdates) {
  // Without clipping the fold reads the payload in place.  It checks every
  // sum during its single pass into the worker's scratch buffer and keeps
  // the result only if all were finite: one NaN or infinity would otherwise
  // make the whole mean non-finite.  Runs of 5 put the bad updates mid-run.
  constexpr std::size_t kModel = 96;
  for (const std::size_t batch : {1u, 5u}) {
    ParallelAggregator honest(kModel, 1, /*clip_norm=*/0.0f, batch);
    ParallelAggregator mixed(kModel, 1, /*clip_norm=*/0.0f, batch);
    for (std::uint64_t c = 0; c < 12; ++c) {
      honest.enqueue(make_varied_update(c, kModel), 1.0 + c);
      mixed.enqueue(make_varied_update(c, kModel), 1.0 + c);
      if (c == 3) {
        mixed.enqueue(make_poisoned_update(100, kModel, std::nanf("")), 2.0);
      }
      if (c == 7) {
        mixed.enqueue(make_poisoned_update(
                          101, kModel, std::numeric_limits<float>::infinity()),
                      2.0);
      }
    }
    const auto want = honest.reduce_and_reset();
    const auto got = mixed.reduce_and_reset();
    SCOPED_TRACE(batch);
    expect_bit_identical(got, want);
    EXPECT_EQ(got.count, 12u);
    const AggStatsSnapshot stats = mixed.stats_snapshot();
    EXPECT_EQ(stats.dropped, 2u);
    EXPECT_EQ(stats.folded + stats.dropped, stats.enqueued);
    for (const float v : got.mean_delta) ASSERT_TRUE(std::isfinite(v));
  }
  // Finite elements whose sums overflow drop too: FLT_MAX at weight 2, and
  // at weight 1 once an earlier update has brought the intermediate to
  // FLT_MAX.  The first weight-1 update is finite and kept.
  constexpr float kMax = std::numeric_limits<float>::max();
  for (const std::size_t batch : {1u, 5u}) {
    ParallelAggregator overflow(kModel, 1, /*clip_norm=*/0.0f, batch);
    overflow.enqueue(make_update(200, kModel, kMax), 2.0);
    overflow.enqueue(make_update(201, kModel, kMax), 1.0);
    overflow.enqueue(make_update(202, kModel, kMax), 1.0);
    const auto sums = overflow.reduce_and_reset_sums();
    SCOPED_TRACE(batch);
    EXPECT_EQ(sums.count, 1u);
    EXPECT_EQ(sums.weight_sum, 1.0);
    for (const float v : sums.mean_delta) ASSERT_EQ(v, kMax);
    const AggStatsSnapshot stats = overflow.stats_snapshot();
    EXPECT_EQ(stats.dropped, 2u);
    EXPECT_EQ(stats.folded + stats.dropped, stats.enqueued);
  }
}

TEST(OneFold, MalformedUpdatesDropAndCount) {
  constexpr std::size_t kModel = 16;
  const util::Bytes good = make_update(0, kModel, 1.0f);
  ParallelAggregator agg(kModel, 1, 0.0f, /*drain_batch=*/3);
  agg.enqueue(good, 1.0);
  agg.enqueue(make_update(1, kModel + 3, 1.0f), 1.0);  // wrong length
  agg.enqueue(good, 1.0);
  agg.enqueue(util::Bytes(good.begin(), good.end() - 4), 1.0);  // truncated
  agg.enqueue(util::Bytes(good.begin(), good.begin() + 16), 1.0);  // no count
  agg.enqueue(make_update(2, kModel, -std::numeric_limits<float>::infinity()),
              1.0);
  agg.enqueue(good, 1.0);
  const auto reduced = agg.reduce_and_reset();
  EXPECT_EQ(reduced.count, 3u);
  EXPECT_EQ(reduced.weight_sum, 3.0);
  for (const float v : reduced.mean_delta) EXPECT_EQ(v, 1.0f);
  const AggStatsSnapshot stats = agg.stats_snapshot();
  EXPECT_EQ(stats.enqueued, 7u);
  EXPECT_EQ(stats.folded, 3u);
  EXPECT_EQ(stats.dropped, 4u);
}

// ------------------------------------------ Conservation (several workers) --

TEST(OneFold, DrainedGroupsConserveExactly) {
  // Fold one buffer's updates in three groups, draining between groups,
  // then reduce once.  The reduce must account for every update exactly.
  constexpr std::size_t kModel = 64;
  constexpr std::size_t kPerGroup = 20;
  ParallelAggregator agg(kModel, /*num_threads=*/2, 0.0f, /*drain_batch=*/4);
  std::uint64_t client = 0;
  double expected_weight = 0.0;
  for (int group = 0; group < 3; ++group) {
    for (std::size_t i = 0; i < kPerGroup; ++i, ++client) {
      // Unit deltas and integer weights: sums stay exact in float under any
      // fold interleaving.
      agg.enqueue(make_update(client, kModel, 1.0f), 1.0 + client % 3);
      expected_weight += 1.0 + client % 3;
    }
    agg.drain();
  }
  // Raw sums (not the normalized mean): with unit deltas and small integer
  // weights every partial sum is exact in float, so the assertion is exact
  // under any fold order or split across intermediates.
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

TEST(OneFold, ConcurrentProducersConserveAcrossBuffers) {
  // Two producer threads enqueue into a three-worker pool; each buffer's
  // reduce must see every update exactly once, whichever worker folded it.
  constexpr std::size_t kModel = 48;
  constexpr std::size_t kPerProducer = 300;
  constexpr int kBuffers = 4;
  ParallelAggregator agg(kModel, /*num_threads=*/3, 0.0f, /*drain_batch=*/5);
  for (int buffer = 0; buffer < kBuffers; ++buffer) {
    std::thread producers[2];
    for (int p = 0; p < 2; ++p) {
      producers[p] = std::thread([&, p] {
        for (std::size_t i = 0; i < kPerProducer; ++i) {
          agg.enqueue(make_update(p * kPerProducer + i, kModel, 1.0f), 1.0);
        }
      });
    }
    for (auto& t : producers) t.join();
    const auto reduced = agg.reduce_and_reset_sums();
    EXPECT_EQ(reduced.count, 2 * kPerProducer) << "buffer " << buffer;
    EXPECT_DOUBLE_EQ(reduced.weight_sum, 2.0 * kPerProducer);
    for (const float v : reduced.mean_delta) {
      EXPECT_EQ(v, static_cast<float>(2 * kPerProducer));
    }
  }
}

TEST(OneFold, ConservesUnderConcurrentEnqueueAndReduce) {
  // Enqueue concurrently with reduces on a three-worker pool; across all
  // reduces every update is counted exactly once.
  constexpr std::size_t kModel = 32;
  constexpr std::size_t kUpdates = 400;
  ParallelAggregator agg(kModel, 3, 0.0f, 2);
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

TEST(OneFold, StatsCountersTrackTraffic) {
  constexpr std::size_t kModel = 24;
  ParallelAggregator agg(kModel, 1);
  const util::Bytes update = make_update(0, kModel, 1.0f);
  for (int i = 0; i < 6; ++i) agg.enqueue(update, 1.0);
  agg.drain();
  const auto reduced = agg.reduce_and_reset();
  EXPECT_EQ(reduced.count, 6u);
  const AggStatsSnapshot stats = agg.stats_snapshot();
  EXPECT_EQ(stats.enqueued, 6u);
  EXPECT_EQ(stats.folded, 6u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.reduces, 1u);
  EXPECT_GE(stats.max_queue_depth, 1u);
}

// ------------------------------------------------------ Sharded reduce --

ShardedAggregator::Config sharded_config(std::size_t model,
                                         std::size_t threads) {
  ShardedAggregator::Config cfg;
  cfg.model_size = model;
  cfg.num_shards = 4;
  cfg.threads_per_shard = threads;
  return cfg;
}

TEST(ShardedFold, SingleWorkerShardsMatchReferenceBitForBit) {
  // Each single-worker shard folds its streams in arrival order; the
  // cross-shard reduce adds the shards' raw sums in shard order and
  // normalizes once.  Arbitrary values, so any other order would show.
  constexpr std::size_t kModel = 128;
  ShardedAggregator sharded(sharded_config(kModel, 1));
  std::vector<std::vector<WeightedUpdate>> per_shard(sharded.num_shards());
  for (std::uint64_t c = 0; c < 64; ++c) {
    const util::Bytes bytes = make_varied_update(c, kModel);
    const double weight = 1.0 + c % 3;
    per_shard[sharded.shard_for(c)].push_back({bytes, weight});
    sharded.enqueue(c, bytes, weight);
  }
  AggReduced want;
  want.mean_delta.assign(kModel, 0.0f);
  for (const auto& updates : per_shard) {
    const AggReduced part = reference_sums(updates, kModel, 0.0f);
    for (std::size_t i = 0; i < kModel; ++i) {
      want.mean_delta[i] += part.mean_delta[i];
    }
    want.weight_sum += part.weight_sum;
    want.count += part.count;
  }
  expect_bit_identical(sharded.reduce_and_reset(), normalized(want));
}

TEST(ShardedFold, ShardedReduceEqualsSinglePoolReduce) {
  // Exact-in-float values, so every association of the sums has one
  // representation: four shards of one or two workers each reduce to what
  // one single-worker pool reduces to, bit for bit.
  constexpr std::size_t kModel = 128;
  for (const std::size_t threads : {1u, 2u}) {
    ShardedAggregator sharded(sharded_config(kModel, threads));
    ParallelAggregator single(kModel, 1);
    for (std::uint64_t c = 0; c < 64; ++c) {
      const util::Bytes bytes = make_update(c, kModel, 1.0f + c % 4);
      sharded.enqueue(c, bytes, 1.0 + c % 3);
      single.enqueue(bytes, 1.0 + c % 3);
    }
    SCOPED_TRACE(threads);
    expect_bit_identical(sharded.reduce_and_reset(),
                         single.reduce_and_reset());
  }
}

// ------------------------------------------------ Registration validation --

TEST(AggregatorRegistration, NormalizesZeroShards) {
  // 0 must never reach the ring modulo, even when assign_task is called
  // directly (bypassing Coordinator placement).
  Aggregator agg("a1", 1);
  TaskConfig config;
  config.name = "t";
  config.model_size = 8;
  config.aggregator_shards = 0;
  agg.assign_task(config, std::vector<float>(8, 0.0f), {});
  EXPECT_EQ(agg.task_shards("t"), 1u);
}

}  // namespace
}  // namespace papaya::fl
