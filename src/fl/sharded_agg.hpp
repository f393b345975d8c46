#pragma once
// Sharded server-side aggregation (Sec. 6.3, scaled out).
//
// A ParallelAggregator is one shard: one queue, one worker thread and one
// intermediate aggregate.  ShardedAggregator is where the fold goes
// parallel: it places client update *streams* (keyed by client id) on N
// such shards by jump consistent hash, the hardware-proportional layout
// Sec. 6.3 sketches for hashed intermediates, with the stream rather than
// the thread choosing the intermediate.  Shards are the only axis of fold
// parallelism.
//
// Placement goes through fl::shard_for (shard_ring.hpp), so (1) a stream's
// updates always land on the same shard (per-stream FIFO order is
// preserved), (2) each shard owns 1/N of the streams in expectation, and
// (3) resharding moves only ~1/(N+1) of the streams.  reduce_and_reset()
// performs the cross-shard reduce: each shard contributes its raw weighted
// sum, and the weighted mean is computed once over the global weight, so the
// result is the same set of folds a single aggregator would have performed.

#include <cstdint>
#include <memory>
#include <vector>

#include "fl/parallel_agg.hpp"
#include "fl/shard_ring.hpp"
#include "util/bytes.hpp"

namespace papaya::fl {

// Lock hierarchy (util/sync.hpp): the ShardedAggregator holds no lock of its
// own — shards are fixed at construction and routing is a pure jump
// consistent hash — so every synchronization need delegates to the per-shard
// ParallelAggregator (queue_mutex_, level 1).
class ShardedAggregator {
 public:
  struct Config {
    std::size_t model_size = 0;
    /// Independent ParallelAggregator shards, one worker thread each (0
    /// normalized to 1).
    std::size_t num_shards = 1;
    /// Per-update L2 clip applied by every shard (0 disables).
    float clip_norm = 0.0f;
  };

  explicit ShardedAggregator(const Config& config);

  ShardedAggregator(const ShardedAggregator&) = delete;
  ShardedAggregator& operator=(const ShardedAggregator&) = delete;

  /// Route one serialized update to the shard that owns `stream_key`.
  /// Updates from the same stream always hit the same shard.
  void enqueue(std::uint64_t stream_key, util::Bytes serialized_update,
               double weight);

  /// Block until every shard's queue is drained and folded.
  void drain();

  /// Cross-shard reduce: drain + reduce every shard, combine the raw
  /// weighted sums, then normalize once by the global weight.  Safe against
  /// concurrent enqueue() (each shard's reduce quiesces that shard; a racing
  /// update lands in its next buffer).
  ParallelAggregator::Reduced reduce_and_reset();

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t shard_for(std::uint64_t stream_key) const {
    return fl::shard_for(stream_key, shards_.size());
  }

  /// Hot-path counters summed over shards.
  AggStatsSnapshot stats_snapshot() const;

  /// One shard's counters (test hook: the FSM harness asserts per-shard
  /// update conservation — enqueued == folded + dropped — after a quiesce
  /// drain, not just the cross-shard sum).
  AggStatsSnapshot shard_stats(std::size_t shard) const {
    return shards_[shard]->stats_snapshot();
  }

 private:
  std::size_t model_size_;
  std::vector<std::unique_ptr<ParallelAggregator>> shards_;
};

}  // namespace papaya::fl
