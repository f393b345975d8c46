// Tests for the aggregation shard's one fold: the UpdateView wire parser, a
// shard against a reference fold written out here (bit for bit, with and
// without clipping, in runs of one and in whatever runs the worker takes),
// drops of malformed and non-finite updates, the conservation hammers on one
// shard and on a sharded aggregator under concurrent enqueue and reduce, the
// AggStats counters, the sharded reduce against its own reference and
// against one shard, and registration-time shard normalization.

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

/// Raw weighted sums of `updates` folded one after another, the way a
/// shard's worker folds them: acc[i] += float(w) * x[i] from zeros, each
/// delta first clipped to `clip_norm` when that is > 0.
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

/// Normalize raw sums the way ShardedAggregator::reduce_and_reset() does.
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

ShardedAggregator::Config sharded_config(std::size_t model,
                                         std::size_t shards,
                                         float clip_norm = 0.0f) {
  ShardedAggregator::Config cfg;
  cfg.model_size = model;
  cfg.num_shards = shards;
  cfg.clip_norm = clip_norm;
  return cfg;
}

/// Enqueue `updates` in order.  With `drain_each`, each update is folded
/// before the next arrives, so the worker takes runs of one; without, it
/// takes whatever has queued up at each wakeup.
void enqueue_all(ParallelAggregator& agg,
                 const std::vector<WeightedUpdate>& updates, bool drain_each) {
  for (const auto& [bytes, weight] : updates) {
    agg.enqueue(bytes, weight);
    if (drain_each) agg.drain();
  }
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
  // Bytes past the last float, whole floats or not, are refused too.
  for (std::size_t extra = 1; extra <= 7; ++extra) {
    util::Bytes padded = bytes;
    padded.resize(bytes.size() + extra, 0);
    EXPECT_FALSE(UpdateView::parse(padded, 8).has_value()) << extra;
  }
  // A count of 7 over 8 floats leaves 4 bytes over.
  util::Bytes undercounted = bytes;
  undercounted[24] = 7;
  EXPECT_FALSE(UpdateView::parse(undercounted, 7).has_value());
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

// -------------------------------------------- One shard: the reference fold --

TEST(OneFold, ShardUnclippedFoldMatchesReferenceBitForBit) {
  constexpr std::size_t kModel = 257;  // odd, exercises non-aligned tails
  std::vector<WeightedUpdate> updates;
  for (std::uint64_t c = 0; c < 32; ++c) {
    updates.push_back({make_varied_update(c, kModel), 0.25 + 0.5 * (c % 4)});
  }
  const AggReduced want = reference_sums(updates, kModel, 0.0f);
  for (const bool drain_each : {false, true}) {
    ParallelAggregator agg(kModel);
    enqueue_all(agg, updates, drain_each);
    SCOPED_TRACE(drain_each);
    expect_bit_identical(agg.reduce_and_reset_sums(), want);
  }
  // One shard behind the sharded reduce: the same sums, normalized once.
  ShardedAggregator one(sharded_config(kModel, 1));
  for (std::uint64_t c = 0; c < updates.size(); ++c) {
    one.enqueue(c, updates[c].bytes, updates[c].weight);
  }
  expect_bit_identical(one.reduce_and_reset(), normalized(want));
}

TEST(OneFold, ShardClippedFoldMatchesReferenceBitForBit) {
  constexpr std::size_t kModel = 96;
  constexpr float kClip = 0.5f;
  std::vector<WeightedUpdate> updates;
  for (std::uint64_t c = 0; c < 12; ++c) {
    updates.push_back({make_varied_update(c, kModel), 1.0 + c});
  }
  const AggReduced want = reference_sums(updates, kModel, kClip);
  for (const bool drain_each : {false, true}) {
    ParallelAggregator agg(kModel, kClip);
    enqueue_all(agg, updates, drain_each);
    SCOPED_TRACE(drain_each);
    expect_bit_identical(agg.reduce_and_reset_sums(), want);
  }
  ShardedAggregator one(sharded_config(kModel, 1, kClip));
  for (std::uint64_t c = 0; c < updates.size(); ++c) {
    one.enqueue(c, updates[c].bytes, updates[c].weight);
  }
  expect_bit_identical(one.reduce_and_reset(), normalized(want));
}

// ----------------------------------------------------------------- Drops --

TEST(OneFold, ClippedFoldsDropNonFiniteUpdates) {
  // Clipping cannot make a NaN or an infinity finite (max / inf is 0, and
  // inf * 0 is NaN), so the fold drops such an update as malformed: the
  // honest updates reduce to exactly what they reduce to alone.
  constexpr std::size_t kModel = 96;
  ParallelAggregator honest(kModel, /*clip_norm=*/0.5f);
  ParallelAggregator mixed(kModel, /*clip_norm=*/0.5f);
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
  const auto want = honest.reduce_and_reset_sums();
  const auto got = mixed.reduce_and_reset_sums();
  expect_bit_identical(got, want);
  EXPECT_EQ(got.count, 12u);
  EXPECT_EQ(mixed.stats_snapshot().dropped, 2u);
  // The clip bounds the delta but not the weight: an infinite weight makes
  // every sum of its fold non-finite.
  ParallelAggregator heavy(kModel, /*clip_norm=*/0.5f);
  for (std::uint64_t c = 0; c < 12; ++c) {
    heavy.enqueue(make_varied_update(c, kModel), 1.0 + c);
    if (c == 5) {
      heavy.enqueue(make_varied_update(102, kModel),
                    std::numeric_limits<double>::infinity());
    }
  }
  expect_bit_identical(heavy.reduce_and_reset_sums(), want);
  EXPECT_EQ(heavy.stats_snapshot().dropped, 1u);
}

TEST(OneFold, UnclippedFoldsDropNonFiniteUpdates) {
  // Without clipping the fold reads the payload in place.  It checks every
  // sum during its single pass into the shard's scratch buffer and keeps the
  // result only if all were finite: one NaN or infinity would otherwise make
  // the whole mean non-finite.  Runs of one, and whatever runs the worker
  // takes, which can put the bad updates mid-run.
  constexpr std::size_t kModel = 96;
  std::vector<WeightedUpdate> honest_updates, mixed_updates;
  for (std::uint64_t c = 0; c < 12; ++c) {
    honest_updates.push_back({make_varied_update(c, kModel), 1.0 + c});
    mixed_updates.push_back({make_varied_update(c, kModel), 1.0 + c});
    if (c == 3) {
      mixed_updates.push_back(
          {make_poisoned_update(100, kModel, std::nanf("")), 2.0});
    }
    if (c == 7) {
      mixed_updates.push_back(
          {make_poisoned_update(101, kModel,
                                std::numeric_limits<float>::infinity()),
           2.0});
    }
  }
  for (const bool drain_each : {false, true}) {
    ParallelAggregator honest(kModel);
    ParallelAggregator mixed(kModel);
    enqueue_all(honest, honest_updates, drain_each);
    enqueue_all(mixed, mixed_updates, drain_each);
    const auto want = honest.reduce_and_reset_sums();
    const auto got = mixed.reduce_and_reset_sums();
    SCOPED_TRACE(drain_each);
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
  const std::vector<WeightedUpdate> overflowing = {
      {make_update(200, kModel, kMax), 2.0},
      {make_update(201, kModel, kMax), 1.0},
      {make_update(202, kModel, kMax), 1.0}};
  for (const bool drain_each : {false, true}) {
    ParallelAggregator overflow(kModel);
    enqueue_all(overflow, overflowing, drain_each);
    const auto sums = overflow.reduce_and_reset_sums();
    SCOPED_TRACE(drain_each);
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
  ParallelAggregator agg(kModel);
  agg.enqueue(good, 1.0);
  agg.enqueue(make_update(1, kModel + 3, 1.0f), 1.0);  // wrong length
  agg.enqueue(good, 1.0);
  agg.enqueue(util::Bytes(good.begin(), good.end() - 4), 1.0);  // truncated
  agg.enqueue(util::Bytes(good.begin(), good.begin() + 16), 1.0);  // no count
  agg.enqueue(make_update(2, kModel, -std::numeric_limits<float>::infinity()),
              1.0);
  agg.enqueue(good, 1.0);
  const auto reduced = agg.reduce_and_reset_sums();
  EXPECT_EQ(reduced.count, 3u);
  EXPECT_EQ(reduced.weight_sum, 3.0);
  for (const float v : reduced.mean_delta) EXPECT_EQ(v, 3.0f);
  const AggStatsSnapshot stats = agg.stats_snapshot();
  EXPECT_EQ(stats.enqueued, 7u);
  EXPECT_EQ(stats.folded, 3u);
  EXPECT_EQ(stats.dropped, 4u);
}

// ------------------------------------------------------------ Conservation --

TEST(OneFold, DrainedGroupsConserveExactly) {
  // Fold one buffer's updates in three groups, draining between groups,
  // then reduce once.  The reduce must account for every update exactly.
  constexpr std::size_t kModel = 64;
  constexpr std::size_t kPerGroup = 20;
  ParallelAggregator agg(kModel);
  std::uint64_t client = 0;
  double expected_weight = 0.0;
  for (int group = 0; group < 3; ++group) {
    for (std::size_t i = 0; i < kPerGroup; ++i, ++client) {
      // Unit deltas and integer weights: sums stay exact in float.
      agg.enqueue(make_update(client, kModel, 1.0f), 1.0 + client % 3);
      expected_weight += 1.0 + client % 3;
    }
    agg.drain();
  }
  // Raw sums (not the normalized mean): with unit deltas and small integer
  // weights every partial sum is exact in float, so the assertion is exact.
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
  // Two producer threads enqueue into one shard; each buffer's reduce must
  // see every update exactly once.
  constexpr std::size_t kModel = 48;
  constexpr std::size_t kPerProducer = 300;
  constexpr int kBuffers = 4;
  ParallelAggregator agg(kModel);
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

/// Totals over every reduce of one conservation hammer.
struct Conserved {
  std::atomic<std::size_t> count{0};
  std::atomic<std::uint64_t> weight_units{0};
  /// Sum over buffers of each buffer's raw sum of element 0 (one shard).
  std::atomic<std::uint64_t> mass_units{0};

  void credit(const AggReduced& part, bool raw_sums) {
    count += part.count;
    // Unit weights: every weight sum is a small integer, exact in double.
    weight_units += static_cast<std::uint64_t>(part.weight_sum);
    if (raw_sums) mass_units += static_cast<std::uint64_t>(part.mean_delta[0]);
  }
};

/// Two producers enqueue `per_producer` unit updates each while two reducer
/// threads reduce concurrently until both producers are done; a last
/// reduce collects the rest.  `reduce` returns one reduce's result.
template <class Enqueue, class Reduce>
void hammer(std::size_t per_producer, Enqueue enqueue, Reduce reduce,
            bool raw_sums, Conserved& total) {
  std::atomic<int> producers_done{0};
  std::vector<std::thread> threads;
  for (std::uint64_t p = 0; p < 2; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        enqueue(p * per_producer + i);
      }
      producers_done.fetch_add(1);
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&] {
      while (producers_done.load() < 2) total.credit(reduce(), raw_sums);
    });
  }
  for (auto& t : threads) t.join();
  total.credit(reduce(), raw_sums);
}

TEST(OneFold, ShardConservesUnderConcurrentEnqueueAndReduce) {
  // Producers race concurrent reducers on one shard: the reducers take
  // turns on the pause flag, and across all reduces every update is counted
  // exactly once.  Unit deltas and weights keep every sum exact in float.
  constexpr std::size_t kModel = 32;
  constexpr std::size_t kPerProducer = 250;
  ParallelAggregator agg(kModel);
  const util::Bytes update = make_update(0, kModel, 1.0f);
  Conserved total;
  hammer(
      kPerProducer, [&](std::uint64_t) { agg.enqueue(update, 1.0); },
      [&] { return agg.reduce_and_reset_sums(); }, /*raw_sums=*/true, total);
  EXPECT_EQ(total.count.load(), 2 * kPerProducer);
  EXPECT_EQ(total.weight_units.load(), 2 * kPerProducer);
  EXPECT_EQ(total.mass_units.load(), 2 * kPerProducer);
  const AggStatsSnapshot stats = agg.stats_snapshot();
  EXPECT_EQ(stats.enqueued, 2 * kPerProducer);
  EXPECT_EQ(stats.folded, 2 * kPerProducer);
}

TEST(ShardedFold, ShardsConserveUnderConcurrentEnqueueAndReduce) {
  // The same hammer on four shards.  Each shard quiesces on its own, so two
  // racing sharded reduces may each take some shards' buffers; across all
  // reduces no update is counted twice or lost.
  constexpr std::size_t kModel = 32;
  constexpr std::size_t kPerProducer = 250;
  ShardedAggregator agg(sharded_config(kModel, 4));
  Conserved total;
  hammer(
      kPerProducer,
      [&](std::uint64_t c) {
        agg.enqueue(c, make_update(c, kModel, 1.0f), 1.0);
      },
      [&] { return agg.reduce_and_reset(); }, /*raw_sums=*/false, total);
  EXPECT_EQ(total.count.load(), 2 * kPerProducer);
  EXPECT_EQ(total.weight_units.load(), 2 * kPerProducer);
  const AggStatsSnapshot stats = agg.stats_snapshot();
  EXPECT_EQ(stats.enqueued, 2 * kPerProducer);
  EXPECT_EQ(stats.folded, 2 * kPerProducer);
  for (std::size_t s = 0; s < agg.num_shards(); ++s) {
    const AggStatsSnapshot shard = agg.shard_stats(s);
    EXPECT_GT(shard.enqueued, 0u) << "shard " << s;
    EXPECT_EQ(shard.folded + shard.dropped, shard.enqueued) << "shard " << s;
  }
}

TEST(OneFold, StatsCountersTrackTraffic) {
  constexpr std::size_t kModel = 24;
  ParallelAggregator agg(kModel);
  const util::Bytes update = make_update(0, kModel, 1.0f);
  for (int i = 0; i < 6; ++i) agg.enqueue(update, 1.0);
  agg.drain();
  const auto reduced = agg.reduce_and_reset_sums();
  EXPECT_EQ(reduced.count, 6u);
  const AggStatsSnapshot stats = agg.stats_snapshot();
  EXPECT_EQ(stats.enqueued, 6u);
  EXPECT_EQ(stats.folded, 6u);
  EXPECT_EQ(stats.dropped, 0u);
}

// ------------------------------------------------------ Sharded reduce --

TEST(ShardedFold, ShardsMatchReferenceBitForBit) {
  // Each shard folds its streams in arrival order; the cross-shard reduce
  // adds the shards' raw sums in shard order and normalizes once.
  // Arbitrary values, so any other order would show.
  constexpr std::size_t kModel = 128;
  ShardedAggregator sharded(sharded_config(kModel, 4));
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

TEST(ShardedFold, ShardedReduceEqualsOneShardReduce) {
  // Exact-in-float values, so every association of the sums has one
  // representation: four shards reduce to what one shard reduces to, bit
  // for bit.
  constexpr std::size_t kModel = 128;
  ShardedAggregator sharded(sharded_config(kModel, 4));
  ShardedAggregator one(sharded_config(kModel, 1));
  for (std::uint64_t c = 0; c < 64; ++c) {
    const util::Bytes bytes = make_update(c, kModel, 1.0f + c % 4);
    sharded.enqueue(c, bytes, 1.0 + c % 3);
    one.enqueue(c, bytes, 1.0 + c % 3);
  }
  expect_bit_identical(sharded.reduce_and_reset(), one.reduce_and_reset());
}

// ------------------------------------------------ Registration validation --

TEST(AggregatorRegistration, NormalizesZeroShards) {
  // 0 must never reach shard placement, even when assign_task is called
  // directly (bypassing Coordinator placement).
  Aggregator agg("a1");
  TaskConfig config;
  config.name = "t";
  config.model_size = 8;
  config.aggregator_shards = 0;
  agg.assign_task(config, std::vector<float>(8, 0.0f), {});
  EXPECT_EQ(agg.task_shards("t"), 1u);
}

}  // namespace
}  // namespace papaya::fl
