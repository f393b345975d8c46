#pragma once
// Parallel model aggregation (Sec. 6.3).
//
// "Once a client completes training, it uploads the trained serialized model
//  update to the server.  This update is then pushed into an in-memory queue
//  on the Aggregator.  A different thread drains the queue by de-serializing
//  the updates into trainable parameters and aggregating them.  To speed up
//  this aggregation, we parallelize the aggregation process across available
//  cores.  To reduce lock contention, the ID of the thread performing
//  intermediate aggregation is hashed to choose one of the intermediate
//  aggregates."
//
// This module is one aggregation shard: one queue, one worker thread and the
// one intermediate aggregate that worker owns, so a fold takes no lock at all
// (the partition-owned aggregation of Leis et al.'s morsel-driven design,
// SIGMOD '14).  The paper's thread pool maps onto shards: ShardedAggregator
// runs TaskConfig::aggregator_shards of these, one thread per shard, and
// hashes each client's stream, rather than each thread, onto one of them.
//
// At each wakeup the worker takes everything queued, by swapping the queue
// with its own cleared run buffer under the queue lock, and folds the run in
// FIFO order straight from the serialized bytes (the wire format is
// little-endian IEEE-754, so on LE hosts the fold reads the payload in place;
// no ModelUpdate is materialized).  An update of the wrong length or a
// truncated one is dropped and counted, and so is one whose fold would leave
// a NaN or an infinity in the intermediate: a non-finite element or weight,
// or a weighted sum that overflows.  The intermediate therefore stays finite.
//
// Exactness: the fold order is the enqueue order, so a shard's sum is a pure
// function of the updates enqueued into it.
//
// reduce_and_reset_sums() is safe against concurrent enqueue(): the reduce
// quiesces the shard (drains, then pauses the worker under the queue lock) so
// an update enqueued mid-reduce lands in the *next* buffer instead of being
// folded into an intermediate that was already summed-and-reset.  The same
// handshake is the happens-before edge that lets the reduce read the
// worker's lock-free intermediate.  Concurrent reduces take turns on the
// pause flag, so each update is counted by exactly one of them.

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "util/bytes.hpp"
#include "util/sync.hpp"

namespace papaya::fl {

/// A reduced aggregation buffer.  `mean_delta` holds the raw weighted sum
/// after ParallelAggregator::reduce_and_reset_sums(), and the weighted mean
/// after ShardedAggregator::reduce_and_reset().
struct AggReduced {
  std::vector<float> mean_delta;
  double weight_sum = 0.0;
  std::size_t count = 0;
};

/// One queued serialized update with its precomputed weight.
struct QueuedUpdate {
  util::Bytes bytes;
  double weight = 0.0;
};

/// Point-in-time copy of a shard's AggStats counters.
struct AggStatsSnapshot {
  std::uint64_t enqueued = 0;  ///< updates pushed into the queue
  std::uint64_t folded = 0;    ///< updates folded into the intermediate
  std::uint64_t dropped = 0;   ///< malformed, or a non-finite fold
};

/// Relaxed-atomic counters on the aggregation hot path.  Writers (enqueue,
/// the worker) touch only relaxed atomics; readers take snapshots.  After a
/// drain, folded + dropped == enqueued.
class AggStats {
 public:
  void on_enqueue() { enqueued_.fetch_add(1, std::memory_order_relaxed); }
  void on_folded(std::size_t n) {
    folded_.fetch_add(n, std::memory_order_relaxed);
  }
  void on_dropped(std::size_t n) {
    dropped_.fetch_add(n, std::memory_order_relaxed);
  }

  AggStatsSnapshot snapshot() const {
    AggStatsSnapshot s;
    s.enqueued = enqueued_.load(std::memory_order_relaxed);
    s.folded = folded_.load(std::memory_order_relaxed);
    s.dropped = dropped_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> folded_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// A bounds-checked view over one serialized ModelUpdate's float payload,
/// read in place by the fold.  The wire format (ModelUpdate::serialize) is:
/// client_id u64 | initial_version u64 | num_examples u64 | count u64 |
/// count * f32, all little-endian.
struct UpdateView {
  const std::uint8_t* payload = nullptr;  ///< count * 4 bytes of LE f32 bits
  std::size_t count = 0;

  /// Parses `bytes`; returns nullopt unless the update is well-formed (its
  /// bytes end with its last float) AND carries exactly `expect` parameters
  /// (malformed updates are dropped, as in ModelUpdate-based folding).
  static std::optional<UpdateView> parse(const util::Bytes& bytes,
                                         std::size_t expect);

  /// Element `i`'s IEEE-754 bit pattern.
  std::uint32_t bits(std::size_t i) const {
    std::uint32_t v;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, payload + 4 * i, 4);
    } else {
      const std::uint8_t* p = payload + 4 * i;
      v = static_cast<std::uint32_t>(p[0]) |
          (static_cast<std::uint32_t>(p[1]) << 8) |
          (static_cast<std::uint32_t>(p[2]) << 16) |
          (static_cast<std::uint32_t>(p[3]) << 24);
    }
    return v;
  }

  float at(std::size_t i) const { return std::bit_cast<float>(bits(i)); }

  /// out[i] = acc[i] + w * at(i) for every element, in one pass.  Returns
  /// false, leaving `out` unspecified, if a sum is a NaN or an infinity:
  /// a non-finite element or `w`, or an overflow.  `out` and `acc` hold
  /// `count` floats and do not overlap.
  bool fold_finite(float* out, const float* acc, float w) const;

  /// Decode the whole payload into `out` (out.size() == count).
  void copy_to(std::span<float> out) const;
};

class ParallelAggregator {
 public:
  /// One worker thread folding into one intermediate.  `clip_norm` > 0
  /// rescales each delta to at most that L2 norm before aggregation
  /// (per-update clipping for differential privacy).
  explicit ParallelAggregator(std::size_t model_size, float clip_norm = 0.0f);
  ~ParallelAggregator();

  ParallelAggregator(const ParallelAggregator&) = delete;
  ParallelAggregator& operator=(const ParallelAggregator&) = delete;

  /// Push one serialized update with its precomputed weight into the queue.
  void enqueue(util::Bytes serialized_update, double weight);

  /// Block until the queue is drained and all in-flight work has been folded.
  void drain();

  /// Drain, then return the intermediate as (raw weighted sum of
  /// w_i * delta_i, total weight, count) and reset it for the next buffer.
  /// The sum is not divided by `weight_sum`: ShardedAggregator adds the
  /// shards' sums and forms the mean once, over the global weight.
  using Reduced = AggReduced;
  Reduced reduce_and_reset_sums();

  /// Hot-path counters (cumulative since construction).
  AggStatsSnapshot stats_snapshot() const { return stats_.snapshot(); }

 private:
  void worker_loop();
  /// Fold a drained run in FIFO order into the intermediate, freeing each
  /// update's bytes as it goes.  Malformed updates, and updates whose fold
  /// would leave a non-finite sum, are dropped and counted.
  void fold_run(std::span<QueuedUpdate> run);

  const std::size_t model_size_;
  const float clip_norm_;
  AggStats stats_;

  /// The intermediate aggregate.  Only the worker touches it between
  /// reduces, and only the quiesced reduce touches it otherwise, so it needs
  /// no lock.
  std::vector<float> weighted_delta_;  ///< sum of w_i * delta_i; sized on
                                       ///< the first fold
  /// The fold's result until every sum proves finite and the two buffers
  /// swap; with clip_norm > 0 it first holds the clipped delta.
  std::vector<float> scratch_;
  double weight_sum_ = 0.0;
  std::size_t count_ = 0;

  /// Lock hierarchy: queue_mutex_ is level 1 and the only lock the shard
  /// has; the worker releases it before folding (see util/sync.hpp).
  mutable util::Mutex queue_mutex_;
  util::CondVar queue_cv_;
  util::CondVar drained_cv_;
  std::vector<QueuedUpdate> queue_ PAPAYA_GUARDED_BY(queue_mutex_);
  /// True while the worker folds a run it took from the queue.
  bool folding_ PAPAYA_GUARDED_BY(queue_mutex_) = false;
  bool stopping_ PAPAYA_GUARDED_BY(queue_mutex_) = false;
  /// True while reduce_and_reset_sums() reads/resets the intermediate; the
  /// worker leaves the queue untouched so mid-reduce enqueues survive into
  /// the next buffer, and other reducers wait their turn.
  bool paused_ PAPAYA_GUARDED_BY(queue_mutex_) = false;

  std::thread worker_;
};

}  // namespace papaya::fl
