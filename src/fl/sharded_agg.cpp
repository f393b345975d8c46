#include "fl/sharded_agg.hpp"

#include <stdexcept>

namespace papaya::fl {

ShardedAggregator::ShardedAggregator(const Config& config)
    : model_size_(config.model_size) {
  if (config.model_size == 0) {
    throw std::invalid_argument("ShardedAggregator: model_size must be > 0");
  }
  const std::size_t num_shards = config.num_shards == 0 ? 1 : config.num_shards;
  shards_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(
        std::make_unique<ParallelAggregator>(model_size_, config.clip_norm));
  }
}

AggStatsSnapshot ShardedAggregator::stats_snapshot() const {
  AggStatsSnapshot total;
  for (const auto& shard : shards_) {
    const AggStatsSnapshot s = shard->stats_snapshot();
    total.enqueued += s.enqueued;
    total.folded += s.folded;
    total.dropped += s.dropped;
  }
  return total;
}

void ShardedAggregator::enqueue(std::uint64_t stream_key,
                                util::Bytes serialized_update, double weight) {
  shards_[shard_for(stream_key)]->enqueue(std::move(serialized_update),
                                          weight);
}

void ShardedAggregator::drain() {
  for (auto& shard : shards_) shard->drain();
}

ParallelAggregator::Reduced ShardedAggregator::reduce_and_reset() {
  ParallelAggregator::Reduced out;
  out.mean_delta.assign(model_size_, 0.0f);
  for (auto& shard : shards_) {
    // Raw weighted sums, so the mean is formed exactly once below — summing
    // already-normalized shard means would weight shards, not updates.
    ParallelAggregator::Reduced part = shard->reduce_and_reset_sums();
    for (std::size_t i = 0; i < model_size_; ++i) {
      out.mean_delta[i] += part.mean_delta[i];
    }
    out.weight_sum += part.weight_sum;
    out.count += part.count;
  }
  if (out.weight_sum > 0.0) {
    const float inv = static_cast<float>(1.0 / out.weight_sum);
    for (auto& v : out.mean_delta) v *= inv;
  }
  return out;
}

}  // namespace papaya::fl
