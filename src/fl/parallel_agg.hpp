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
// This module keeps the paper's queue + worker-pool shape and takes its
// contention trick to the limit, after Leis et al.'s morsel-driven
// aggregation (SIGMOD '14): every worker owns one intermediate aggregate, so
// a fold takes no lock at all.  A worker drains a run of queued updates and
// folds each straight from its serialized bytes (the wire format is
// little-endian IEEE-754, so on LE hosts the fold reads the payload in
// place; no ModelUpdate is materialized).  An update of the wrong length or
// a truncated one is dropped and counted, and so is one whose fold would
// leave a NaN or an infinity in the intermediate: a non-finite element or
// weight, or a weighted sum that overflows.  Every intermediate therefore
// stays finite.  The reduce adds the touched intermediates, in worker order,
// into a zeroed sum.
//
// Exactness: a single-worker pool folds in FIFO order, so its result is a
// pure function of the enqueued updates.  Multi-worker pools split the
// updates across intermediates nondeterministically; conservation suites
// use exact-in-float values there.
//
// reduce_and_reset() is safe against concurrent enqueue(): the reduce
// quiesces the pool (drains, then pauses workers under the queue lock) so an
// update enqueued mid-reduce lands in the *next* buffer instead of being
// folded into an intermediate that was already summed-and-reset.  The same
// handshake is the happens-before edge that lets the reduce read the
// workers' lock-free intermediates.  Concurrent reduces take turns on the
// pause flag, so each update is counted by exactly one of them.

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <deque>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "util/bytes.hpp"
#include "util/sync.hpp"

namespace papaya::fl {

/// A reduced aggregation buffer.  `mean_delta` holds the weighted mean after
/// ParallelAggregator::reduce_and_reset(), or the raw weighted sum after
/// reduce_and_reset_sums() (cross-shard combining).
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

/// Point-in-time copy of a pool's AggStats counters.
struct AggStatsSnapshot {
  std::uint64_t enqueued = 0;         ///< updates pushed into the queue
  std::uint64_t folded = 0;           ///< updates folded into an intermediate
  std::uint64_t dropped = 0;          ///< malformed, or a non-finite fold
  std::uint64_t max_queue_depth = 0;  ///< high-water queue length
  std::uint64_t reduces = 0;          ///< reduce_and_reset calls
};

/// Relaxed-atomic counters on the aggregation hot path.  Writers (enqueue,
/// workers) touch only relaxed atomics; readers take snapshots.  After a
/// drain, folded + dropped == enqueued.
class AggStats {
 public:
  void on_enqueue(std::size_t queue_depth) {
    enqueued_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t depth = queue_depth;
    std::uint64_t seen = max_queue_depth_.load(std::memory_order_relaxed);
    while (depth > seen && !max_queue_depth_.compare_exchange_weak(
                               seen, depth, std::memory_order_relaxed)) {
    }
  }
  void on_folded(std::size_t n) {
    folded_.fetch_add(n, std::memory_order_relaxed);
  }
  void on_dropped(std::size_t n) {
    dropped_.fetch_add(n, std::memory_order_relaxed);
  }
  void on_reduce() { reduces_.fetch_add(1, std::memory_order_relaxed); }

  AggStatsSnapshot snapshot() const {
    AggStatsSnapshot s;
    s.enqueued = enqueued_.load(std::memory_order_relaxed);
    s.folded = folded_.load(std::memory_order_relaxed);
    s.dropped = dropped_.load(std::memory_order_relaxed);
    s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
    s.reduces = reduces_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> folded_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};
  std::atomic<std::uint64_t> reduces_{0};
};

/// A bounds-checked view over one serialized ModelUpdate's float payload,
/// read in place by the fold.  The wire format (ModelUpdate::serialize) is:
/// client_id u64 | initial_version u64 | num_examples u64 | count u64 |
/// count * f32, all little-endian.
struct UpdateView {
  const std::uint8_t* payload = nullptr;  ///< count * 4 bytes of LE f32 bits
  std::size_t count = 0;

  /// Parses `bytes`; returns nullopt unless the update is well-formed AND
  /// carries exactly `expect` parameters (malformed updates are dropped, as
  /// in ModelUpdate-based folding).
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
  /// `num_threads` workers (0 normalized to 1), each folding into its own
  /// intermediate.  `clip_norm` > 0 rescales each delta to at most that L2
  /// norm before aggregation (per-update clipping for differential privacy).
  /// `drain_batch` is the number of queued updates a worker pops per wakeup
  /// (0 normalized to 1): one queue-lock acquisition amortizes over the
  /// whole run, and each popped run is folded in FIFO order, so the folds
  /// are the same as per-update draining would perform.
  ParallelAggregator(std::size_t model_size, std::size_t num_threads,
                     float clip_norm = 0.0f, std::size_t drain_batch = 1);
  ~ParallelAggregator();

  ParallelAggregator(const ParallelAggregator&) = delete;
  ParallelAggregator& operator=(const ParallelAggregator&) = delete;

  /// Push one serialized update with its precomputed weight into the queue.
  void enqueue(util::Bytes serialized_update, double weight);

  /// Block until the queue is drained and all in-flight work has been folded.
  void drain();

  /// Drain, then reduce the intermediates into (weighted mean delta, total
  /// weight, count), and reset for the next buffer.
  using Reduced = AggReduced;
  Reduced reduce_and_reset();

  /// Like reduce_and_reset(), but `mean_delta` holds the raw weighted sum
  /// (sum of w_i * delta_i) — not divided by `weight_sum`.  Cross-shard
  /// reduction (ShardedAggregator) combines shards with this so the final
  /// mean is computed exactly once over the global weight.
  Reduced reduce_and_reset_sums();

  std::size_t queued_or_inflight() const;

  /// Hot-path counters (cumulative since construction).
  AggStatsSnapshot stats_snapshot() const { return stats_.snapshot(); }

 private:
  /// One worker's intermediate aggregate.  Only that worker touches it
  /// between reduces, and only the quiesced reduce touches it otherwise, so
  /// it needs no lock.  Cache-line aligned so neighbouring workers' counters
  /// never share a line.
  struct alignas(64) Intermediate {
    std::vector<float> weighted_delta;  ///< sum of w_i * delta_i; sized on
                                        ///< the worker's first fold
    /// The fold's result until every sum proves finite and the two buffers
    /// swap; with clip_norm > 0 it first holds the clipped delta.
    std::vector<float> scratch;
    double weight_sum = 0.0;
    std::size_t count = 0;
  };

  /// `run` is the worker's drain buffer, reserved to drain_batch_.
  void worker_loop(std::size_t worker_index, std::vector<QueuedUpdate> run);
  /// Fold a drained run in FIFO order into `inter`.  Malformed updates, and
  /// updates whose fold would leave a non-finite sum, are dropped and
  /// counted.
  void fold_run(Intermediate& inter, std::span<const QueuedUpdate> run);

  const std::size_t model_size_;
  const float clip_norm_;
  const std::size_t drain_batch_;
  AggStats stats_;
  std::vector<Intermediate> intermediates_;  ///< one per worker

  /// Lock hierarchy: queue_mutex_ is level 1 and the only lock the pool
  /// has; workers release it before folding (see util/sync.hpp).
  mutable util::Mutex queue_mutex_;
  util::CondVar queue_cv_;
  util::CondVar drained_cv_;
  std::deque<QueuedUpdate> queue_ PAPAYA_GUARDED_BY(queue_mutex_);
  std::size_t inflight_ PAPAYA_GUARDED_BY(queue_mutex_) = 0;
  bool stopping_ PAPAYA_GUARDED_BY(queue_mutex_) = false;
  /// True while reduce_and_reset() reads/resets the intermediates; workers
  /// leave the queue untouched so mid-reduce enqueues survive into the next
  /// buffer, and other reducers wait their turn.
  bool paused_ PAPAYA_GUARDED_BY(queue_mutex_) = false;

  std::vector<std::thread> workers_;
};

}  // namespace papaya::fl
