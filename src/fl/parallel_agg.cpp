#include "fl/parallel_agg.hpp"

#include <algorithm>
#include <stdexcept>

namespace papaya::fl {

std::size_t ParallelAggregator::strategy_index(AggStrategy s) {
  switch (s) {
    case AggStrategy::kLocked:
      return 0;
    case AggStrategy::kMorsel:
      return 1;
    case AggStrategy::kStriped:
      return 2;
    case AggStrategy::kAuto:
      break;
  }
  // kAuto resolves to the locked baseline until the first stats window.
  return 0;
}

ParallelAggregator::ParallelAggregator(std::size_t model_size,
                                       std::size_t num_threads,
                                       std::size_t num_intermediates,
                                       float clip_norm,
                                       std::size_t drain_batch,
                                       AggStrategy strategy,
                                       const AggTuning& tuning)
    : model_size_(model_size),
      tuning_(tuning),
      configured_(strategy),
      active_(strategy_index(strategy)) {
  if (model_size == 0) {
    throw std::invalid_argument("ParallelAggregator: model_size must be > 0");
  }
  if (!valid_agg_strategy(strategy)) {
    throw std::invalid_argument("ParallelAggregator: unknown strategy");
  }
  const std::size_t n = num_threads == 0 ? 1 : num_threads;
  StrategyContext context;
  context.model_size = model_size_;
  context.num_workers = n;
  context.num_partitions = num_intermediates == 0 ? 1 : num_intermediates;
  context.clip_norm = clip_norm;
  context.tuning = tuning_;
  context.stats = &stats_;
  // All three backends live for the pool's lifetime so mid-stream switches
  // never migrate accumulator state; the locked baseline pre-allocates its
  // intermediates (as the pre-strategy pool did), the others are lazy.
  strategies_[0] = make_fold_strategy(AggStrategy::kLocked, context);
  strategies_[1] = make_fold_strategy(AggStrategy::kMorsel, context);
  strategies_[2] = make_fold_strategy(AggStrategy::kStriped, context);
  drain_batch_ = drain_batch == 0 ? 1 : drain_batch;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Each worker's drain buffer is allocated here, on the constructing
    // thread, so a worker allocates nothing as it starts, and what a caller
    // sees allocated does not depend on when a worker is first scheduled.
    std::vector<QueuedUpdate> run;
    run.reserve(drain_batch_);
    workers_.emplace_back([this, i, run = std::move(run)]() mutable {
      worker_loop(i, std::move(run));
    });
  }
}

ParallelAggregator::~ParallelAggregator() {
  {
    util::LockGuard lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ParallelAggregator::enqueue(util::Bytes serialized_update, double weight) {
  const std::size_t bytes = serialized_update.size();
  {
    util::LockGuard lock(queue_mutex_);
    queue_.push_back(QueuedUpdate{std::move(serialized_update), weight});
    // Recorded under the queue lock so a worker that observes the queued
    // update also observes its stats: the adaptive picker then always sees
    // a non-empty window before the first fold, making kAuto's strategy
    // choice deterministic for single-worker pools (no update ever folds
    // under the startup backend by racing the counter).
    stats_.on_enqueue(bytes, queue_.size());
  }
  queue_cv_.notify_one();
}

void ParallelAggregator::force_strategy(AggStrategy strategy) {
  if (!valid_agg_strategy(strategy)) {
    throw std::invalid_argument("ParallelAggregator: unknown strategy");
  }
  configured_.store(strategy, std::memory_order_relaxed);
  if (strategy != AggStrategy::kAuto) {
    active_.store(strategy_index(strategy), std::memory_order_relaxed);
  }
}

AggStrategy ParallelAggregator::active_strategy() const {
  return strategies_[active_.load(std::memory_order_relaxed)]->kind();
}

void ParallelAggregator::worker_loop(std::size_t worker_index,
                                     std::vector<QueuedUpdate> run) {
  for (;;) {
    // Drain up to drain_batch_ queued updates in one queue-lock acquisition
    // (TaskConfig::aggregation_batch_size).  The run is folded in FIFO order
    // by one worker, so batching changes only lock traffic, not which folds
    // happen or their per-accumulator order.
    run.clear();
    {
      util::LockGuard lock(queue_mutex_);
      queue_cv_.wait(queue_mutex_, lock, [this] {
        queue_mutex_.assert_held();  // TSA: predicate runs under the wait lock
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) return;  // stopping
      const std::size_t take = std::min(drain_batch_, queue_.size());
      for (std::size_t i = 0; i < take; ++i) {
        run.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      inflight_ += take;
    }

    // Adaptive re-decision per drained run (Snippet-2 discipline): a cheap
    // relaxed read of the stats window; forced modes skip the picker.  The
    // worker folds this whole run under whichever backend it loads here —
    // a concurrent switch affects later runs, and the reduce merges every
    // touched backend, so no update is lost across a switch.
    if (configured_.load(std::memory_order_relaxed) == AggStrategy::kAuto) {
      const std::size_t current = active_.load(std::memory_order_relaxed);
      const AggStrategy next = decide_strategy(
          stats_.windowed(), strategies_[current]->kind(), tuning_,
          workers_.size());
      if (strategy_index(next) != current) {
        active_.store(strategy_index(next), std::memory_order_relaxed);
      }
    }
    strategies_[active_.load(std::memory_order_relaxed)]->fold_run(
        worker_index, run);

    {
      util::LockGuard lock(queue_mutex_);
      inflight_ -= run.size();
    }
    drained_cv_.notify_all();
  }
}

void ParallelAggregator::drain() {
  util::LockGuard lock(queue_mutex_);
  drained_cv_.wait(queue_mutex_, lock, [this] {
    queue_mutex_.assert_held();
    return queue_.empty() && inflight_ == 0;
  });
}

ParallelAggregator::Reduced ParallelAggregator::reduce_and_reset_sums() {
  // Quiesce the pool before touching the accumulators.  The drained
  // predicate and the pause flag are evaluated/set under one queue_mutex_
  // critical section: everything enqueued before this call is folded, and
  // workers cannot pick up anything enqueued after, so a racing enqueue
  // lands intact in the *next* buffer instead of being folded into an
  // accumulator that this reduce already summed-and-reset.  The same
  // handshake is the happens-before edge that makes the strategies' plain
  // thread-local state safe to merge here.  Waiting for !paused_ as well
  // admits one reducer at a time: two would merge the same accumulators and
  // count their updates twice.
  {
    util::LockGuard lock(queue_mutex_);
    drained_cv_.wait(queue_mutex_, lock, [this] {
      queue_mutex_.assert_held();
      return !paused_ && queue_.empty() && inflight_ == 0;
    });
    paused_ = true;
  }
  Reduced out;
  out.mean_delta.assign(model_size_, 0.0f);
  // Fixed merge order (locked, morsel, striped), untouched backends
  // skipped: a buffer folded under one strategy reduces bit-identically to
  // a pool that only ever had that strategy, and a mid-stream switch merges
  // each update from exactly the accumulator it was folded into.
  for (auto& strategy : strategies_) {
    if (strategy->touched()) strategy->merge_and_reset(out);
  }
  stats_.on_reduce();
  stats_.advance_window();
  {
    util::LockGuard lock(queue_mutex_);
    paused_ = false;
  }
  queue_cv_.notify_all();    // wake workers for anything enqueued mid-reduce
  drained_cv_.notify_all();  // and any reducer waiting its turn
  return out;
}

ParallelAggregator::Reduced ParallelAggregator::reduce_and_reset() {
  Reduced out = reduce_and_reset_sums();
  if (out.weight_sum > 0.0) {
    const float inv = static_cast<float>(1.0 / out.weight_sum);
    for (auto& v : out.mean_delta) v *= inv;
  }
  return out;
}

std::size_t ParallelAggregator::queued_or_inflight() const {
  util::LockGuard lock(queue_mutex_);
  return queue_.size() + inflight_;
}

}  // namespace papaya::fl
