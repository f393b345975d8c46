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
// This module keeps the paper's queue + worker-pool shape, but the fold
// itself is pluggable (fl::AggregationStrategy, src/fl/agg_strategy.hpp):
// the locked per-intermediate baseline above, a morsel-driven thread-local
// pre-aggregation, or a striped atomic fold.  One deliberate deviation from
// the paper's wording survives in the locked baseline: instead of hashing
// the worker's *thread id* onto an intermediate (which gives no collision
// guarantee — std::hash<std::thread::id> routinely mapped whole pools onto a
// single slot, serializing every fold behind one mutex), each worker takes
// `worker_index % num_intermediates`.  That realizes the same
// lock-contention trick with a deterministic, guaranteed-even spread.
//
// When constructed with AggStrategy::kAuto, each worker re-reads the
// AggStats window before folding a drained run and may switch the active
// strategy (decide_strategy's table).  Switches are exact: all three
// strategy accumulators stay alive, an update is folded into exactly one of
// them, and reduce_and_reset() merges every touched strategy in a fixed
// order — so mid-stream switches conserve sums bit-for-bit.
//
// reduce_and_reset() is safe against concurrent enqueue(): the reduce
// quiesces the pool (drains, then pauses workers under the queue lock) so an
// update enqueued mid-reduce lands in the *next* buffer instead of being
// folded into an accumulator that was already summed-and-reset.  Concurrent
// reduces take turns on the same pause flag, so each update is counted by
// exactly one of them.

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "fl/agg_strategy.hpp"
#include "util/bytes.hpp"
#include "util/sync.hpp"

namespace papaya::fl {

class ParallelAggregator {
 public:
  /// `clip_norm` > 0 rescales each deserialized delta to at most that L2
  /// norm before aggregation (per-update clipping for differential
  /// privacy).  `drain_batch` is the number of queued updates a worker pops
  /// per wakeup (>= 1): one queue-lock acquisition and one fold-lock
  /// acquisition amortize over the whole run, and each popped run is folded
  /// in FIFO order, so the folds are the same as per-update draining would
  /// perform.  `strategy` picks the fold backend; the default keeps the
  /// locked baseline so direct constructions behave exactly as before this
  /// layer existed (TaskConfig-driven call sites pass kAuto).
  ParallelAggregator(std::size_t model_size, std::size_t num_threads,
                     std::size_t num_intermediates, float clip_norm = 0.0f,
                     std::size_t drain_batch = 1,
                     AggStrategy strategy = AggStrategy::kLocked,
                     const AggTuning& tuning = {});
  ~ParallelAggregator();

  ParallelAggregator(const ParallelAggregator&) = delete;
  ParallelAggregator& operator=(const ParallelAggregator&) = delete;

  /// Push one serialized update with its precomputed weight into the queue.
  void enqueue(util::Bytes serialized_update, double weight);

  /// Block until the queue is drained and all in-flight work has been folded
  /// into the active strategy's accumulators.
  void drain();

  /// Drain, then reduce every touched strategy into (weighted mean delta,
  /// total weight, count), and reset for the next buffer.
  using Reduced = AggReduced;
  Reduced reduce_and_reset();

  /// Like reduce_and_reset(), but `mean_delta` holds the raw weighted sum
  /// (sum of w_i * delta_i) — not divided by `weight_sum`.  Cross-shard
  /// reduction (ShardedAggregator) combines shards with this so the final
  /// mean is computed exactly once over the global weight.
  Reduced reduce_and_reset_sums();

  std::size_t queued_or_inflight() const;

  /// Change the fold backend mid-stream.  kAuto re-enables the adaptive
  /// picker; a concrete strategy pins it.  Safe under concurrent enqueue and
  /// fold: updates already folded under the old strategy are merged from its
  /// accumulator at the next reduce.
  void force_strategy(AggStrategy strategy);

  /// The strategy the pool was configured with (kAuto or a forced mode).
  AggStrategy configured_strategy() const {
    return configured_.load(std::memory_order_relaxed);
  }
  /// The concrete fold backend new runs are folded with right now (never
  /// kAuto).
  AggStrategy active_strategy() const;

  /// Hot-path counters (cumulative since construction).
  AggStatsSnapshot stats_snapshot() const { return stats_.snapshot(); }

  /// The intermediate a locked-baseline pool worker folds into.
  /// Index-based (not thread-id-hashed) so the spread over intermediates is
  /// guaranteed even; exposed for tests documenting that guarantee.
  static constexpr std::size_t intermediate_slot(std::size_t worker_index,
                                                 std::size_t num_intermediates) {
    return num_intermediates == 0 ? 0 : worker_index % num_intermediates;
  }

 private:
  /// `run` is the worker's drain buffer, reserved to drain_batch_.
  void worker_loop(std::size_t worker_index, std::vector<QueuedUpdate> run);
  static std::size_t strategy_index(AggStrategy s);

  const std::size_t model_size_;
  const AggTuning tuning_;
  std::size_t drain_batch_ = 1;
  AggStats stats_;
  /// The three fold backends, all alive for the pool's lifetime (morsel and
  /// striped allocate lazily) so a mid-stream switch never moves state:
  /// index 0 = locked, 1 = morsel, 2 = striped — also the fixed merge order
  /// at reduce time.
  std::array<std::unique_ptr<AggregationStrategy>, kNumFoldStrategies>
      strategies_;
  std::atomic<AggStrategy> configured_;
  std::atomic<std::size_t> active_;

  /// Lock hierarchy: queue_mutex_ is level 1 — workers release it before
  /// folding into a strategy's level-0 partition lock, and the reduce path's
  /// quiesce handshake guarantees the two levels are never held together
  /// (see util/sync.hpp for the full hierarchy).
  mutable util::Mutex queue_mutex_;
  util::CondVar queue_cv_;
  util::CondVar drained_cv_;
  std::deque<QueuedUpdate> queue_ PAPAYA_GUARDED_BY(queue_mutex_);
  std::size_t inflight_ PAPAYA_GUARDED_BY(queue_mutex_) = 0;
  bool stopping_ PAPAYA_GUARDED_BY(queue_mutex_) = false;
  /// True while reduce_and_reset() reads/resets the accumulators; workers
  /// leave the queue untouched so mid-reduce enqueues survive into the next
  /// buffer, and other reducers wait their turn.
  bool paused_ PAPAYA_GUARDED_BY(queue_mutex_) = false;

  std::vector<std::thread> workers_;
};

}  // namespace papaya::fl
