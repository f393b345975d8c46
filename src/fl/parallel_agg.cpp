#include "fl/parallel_agg.hpp"

#include <algorithm>
#include <stdexcept>

#include "ml/math.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PAPAYA_FOLD_X86 1
#endif

namespace papaya::fl {

// -- UpdateView --------------------------------------------------------------

std::optional<UpdateView> UpdateView::parse(const util::Bytes& bytes,
                                            std::size_t expect) {
  // client_id u64 | initial_version u64 | num_examples u64 | count u64.
  constexpr std::size_t kHeader = 32;
  if (bytes.size() < kHeader) return std::nullopt;
  std::uint64_t count = 0;
  for (int i = 0; i < 8; ++i) {
    count |= static_cast<std::uint64_t>(bytes[24 + i]) << (8 * i);
  }
  if (count != expect) return std::nullopt;
  // Division form so a hostile count cannot overflow the byte math.
  if (count > (bytes.size() - kHeader) / 4) return std::nullopt;
  UpdateView view;
  view.payload = bytes.data() + kHeader;
  view.count = static_cast<std::size_t>(count);
  return view;
}

namespace {

/// out[i] = acc[i] + w * x(i) for i < n, in one pass; false if a sum is a
/// NaN or an infinity, i.e. has all eight exponent bits set.  Testing the
/// sum rather than x(i) catches a non-finite element (w * NaN, w * inf and
/// 0 * inf are all non-finite), a non-finite weight and an overflowing sum
/// alike.  No early exit, so the loop vectorizes; it vectorizes across
/// elements, which leaves each sum's operations, and so its bits, unchanged.
template <class Element>
[[gnu::always_inline]] inline bool fold_finite_loop(float* out,
                                                   const float* acc,
                                                   std::size_t n, float w,
                                                   Element x) {
  constexpr std::uint32_t kExponent = 0x7f800000u;
  std::uint32_t non_finite = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float sum = acc[i] + w * x(i);
    non_finite |= static_cast<std::uint32_t>(
        (std::bit_cast<std::uint32_t>(sum) & kExponent) == kExponent);
    out[i] = sum;
  }
  return non_finite == 0;
}

/// The clipped fold: x[i] = acc[i] + w * x[i], checked the same way.
bool fold_finite_in_place(std::span<float> x, const float* acc, float w) {
  float* p = x.data();
  return fold_finite_loop(p, acc, x.size(), w,
                          [p](std::size_t i) { return p[i]; });
}

#ifdef PAPAYA_FOLD_X86
bool cpu_has_avx2() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
  }();
  return has;
}
#endif

}  // namespace

namespace detail {

// UpdateView::fold_finite's two builds.  Not in a header:
// tests/agg_strategy_test.cpp declares them to check both.
bool fold_finite_portable(float* out, const float* acc, const UpdateView& view,
                          float w) {
  return fold_finite_loop(out, acc, view.count, w,
                          [&view](std::size_t i) { return view.at(i); });
}

#ifdef PAPAYA_FOLD_X86
// The same loop on 32-byte vectors.  On 16-byte ones the check's integer
// operations made a 65,536-float fold 8-16% slower than the fold alone in
// the micro bench, and 1.6x slower with the data in cache; on these it is
// no slower.  The target adds AVX2 and not FMA, which would contract
// acc + w * x and change bits.  Needs an AVX2 CPU.
__attribute__((target("avx2"))) bool fold_finite_avx2(float* out,
                                                      const float* acc,
                                                      const UpdateView& view,
                                                      float w) {
  return fold_finite_loop(out, acc, view.count, w,
                          [&view](std::size_t i) { return view.at(i); });
}
#endif

}  // namespace detail

bool UpdateView::fold_finite(float* out, const float* acc, float w) const {
#ifdef PAPAYA_FOLD_X86
  if (cpu_has_avx2()) return detail::fold_finite_avx2(out, acc, *this, w);
#endif
  return detail::fold_finite_portable(out, acc, *this, w);
}

void UpdateView::copy_to(std::span<float> out) const {
  if constexpr (std::endian::native == std::endian::little) {
    if (count > 0) std::memcpy(out.data(), payload, count * 4);
  } else {
    for (std::size_t i = 0; i < count; ++i) out[i] = at(i);
  }
}

// -- ParallelAggregator ------------------------------------------------------

ParallelAggregator::ParallelAggregator(std::size_t model_size,
                                       std::size_t num_threads,
                                       float clip_norm,
                                       std::size_t drain_batch)
    : model_size_(model_size),
      clip_norm_(clip_norm),
      drain_batch_(drain_batch == 0 ? 1 : drain_batch),
      intermediates_(num_threads == 0 ? 1 : num_threads) {
  if (model_size == 0) {
    throw std::invalid_argument("ParallelAggregator: model_size must be > 0");
  }
  workers_.reserve(intermediates_.size());
  for (std::size_t i = 0; i < intermediates_.size(); ++i) {
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
  {
    util::LockGuard lock(queue_mutex_);
    queue_.push_back(QueuedUpdate{std::move(serialized_update), weight});
    stats_.on_enqueue(queue_.size());
  }
  queue_cv_.notify_one();
}

void ParallelAggregator::fold_run(Intermediate& inter,
                                  std::span<const QueuedUpdate> run) {
  std::size_t folded = 0;
  for (const QueuedUpdate& queued : run) {
    const auto view = UpdateView::parse(queued.bytes, model_size_);
    if (!view) {
      stats_.on_dropped(1);
      continue;
    }
    if (inter.weighted_delta.empty()) {
      inter.weighted_delta.assign(model_size_, 0.0f);
      inter.scratch.resize(model_size_);
    }
    // Each fold writes acc + w * x into the scratch buffer and keeps it only
    // if every sum is finite, so neither a NaN or an infinity in the update
    // nor a sum that overflows reaches the intermediate; such an update
    // drops out like a malformed one.
    const float w = static_cast<float>(queued.weight);
    const float* acc = inter.weighted_delta.data();
    bool finite;
    if (clip_norm_ > 0.0f) {
      // The clip rescales the whole vector, so it runs on the copy the fold
      // then overwrites; its norm is non-finite exactly when an element is.
      view->copy_to(inter.scratch);
      finite = ml::clip_norm(inter.scratch, clip_norm_) &&
               fold_finite_in_place(inter.scratch, acc, w);
    } else {
      // One pass over the wire bytes; a separate scan first would read the
      // payload twice.
      finite = view->fold_finite(inter.scratch.data(), acc, w);
    }
    if (!finite) {
      stats_.on_dropped(1);
      continue;
    }
    inter.weighted_delta.swap(inter.scratch);
    inter.weight_sum += queued.weight;
    ++inter.count;
    ++folded;
  }
  if (folded > 0) stats_.on_folded(folded);
}

void ParallelAggregator::worker_loop(std::size_t worker_index,
                                     std::vector<QueuedUpdate> run) {
  Intermediate& inter = intermediates_[worker_index];
  for (;;) {
    // Drain up to drain_batch_ queued updates in one queue-lock acquisition
    // (TaskConfig::aggregation_batch_size).  The run is folded in FIFO order
    // by one worker, so batching changes only lock traffic, not which folds
    // happen or their order within an intermediate.
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

    fold_run(inter, run);

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
  // Quiesce the pool before touching the intermediates.  The drained
  // predicate and the pause flag are evaluated/set under one queue_mutex_
  // critical section: everything enqueued before this call is folded, and
  // workers cannot pick up anything enqueued after, so a racing enqueue
  // lands intact in the *next* buffer instead of being folded into an
  // intermediate that this reduce already summed-and-reset.  The same
  // handshake is the happens-before edge that makes the workers' plain
  // intermediates safe to read here, and the release below is the edge that
  // orders the reset before their next fold.  Waiting for !paused_ as well
  // admits one reducer at a time: two would merge the same intermediates and
  // count their updates twice.
  {
    util::LockGuard lock(queue_mutex_);
    drained_cv_.wait(queue_mutex_, lock, [this] {
      queue_mutex_.assert_held();
      return !paused_ && queue_.empty() && inflight_ == 0;
    });
    paused_ = true;
  }
  // Worker order, untouched intermediates skipped: a single-worker pool's
  // sum is its one intermediate added to zeros.
  Reduced out;
  out.mean_delta.assign(model_size_, 0.0f);
  for (Intermediate& inter : intermediates_) {
    if (inter.count == 0) continue;
    for (std::size_t i = 0; i < model_size_; ++i) {
      out.mean_delta[i] += inter.weighted_delta[i];
    }
    out.weight_sum += inter.weight_sum;
    out.count += inter.count;
    std::fill(inter.weighted_delta.begin(), inter.weighted_delta.end(), 0.0f);
    inter.weight_sum = 0.0;
    inter.count = 0;
  }
  stats_.on_reduce();
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
