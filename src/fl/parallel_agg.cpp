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
  // The payload must be exactly `count` floats: none short, none left over.
  // Division form so a hostile count cannot overflow the byte math.
  const std::size_t payload = bytes.size() - kHeader;
  if (payload % 4 != 0 || count != payload / 4) return std::nullopt;
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

ParallelAggregator::ParallelAggregator(std::size_t model_size, float clip_norm)
    : model_size_(model_size), clip_norm_(clip_norm) {
  if (model_size == 0) {
    throw std::invalid_argument("ParallelAggregator: model_size must be > 0");
  }
  worker_ = std::thread([this] { worker_loop(); });
}

ParallelAggregator::~ParallelAggregator() {
  {
    util::LockGuard lock(queue_mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_one();
  worker_.join();
}

void ParallelAggregator::enqueue(util::Bytes serialized_update, double weight) {
  {
    util::LockGuard lock(queue_mutex_);
    queue_.push_back(QueuedUpdate{std::move(serialized_update), weight});
    stats_.on_enqueue();
  }
  queue_cv_.notify_one();
}

void ParallelAggregator::fold_run(std::span<QueuedUpdate> run) {
  std::size_t folded = 0;
  for (QueuedUpdate& queued : run) {
    // Owned here, so the update is freed as soon as it is folded or dropped
    // rather than at the end of the run: the next enqueued copy can reuse
    // its memory while it is still warm.
    const util::Bytes bytes = std::move(queued.bytes);
    const auto view = UpdateView::parse(bytes, model_size_);
    if (!view) {
      stats_.on_dropped(1);
      continue;
    }
    if (weighted_delta_.empty()) {
      weighted_delta_.assign(model_size_, 0.0f);
      scratch_.resize(model_size_);
    }
    // Each fold writes acc + w * x into the scratch buffer and keeps it only
    // if every sum is finite, so neither a NaN or an infinity in the update
    // nor a sum that overflows reaches the intermediate; such an update
    // drops out like a malformed one.
    const float w = static_cast<float>(queued.weight);
    const float* acc = weighted_delta_.data();
    bool finite;
    if (clip_norm_ > 0.0f) {
      // The clip rescales the whole vector, so it runs on the copy the fold
      // then overwrites; its norm is non-finite exactly when an element is.
      view->copy_to(scratch_);
      finite = ml::clip_norm(scratch_, clip_norm_) &&
               fold_finite_in_place(scratch_, acc, w);
    } else {
      // One pass over the wire bytes; a separate scan first would read the
      // payload twice.
      finite = view->fold_finite(scratch_.data(), acc, w);
    }
    if (!finite) {
      stats_.on_dropped(1);
      continue;
    }
    weighted_delta_.swap(scratch_);
    weight_sum_ += queued.weight;
    ++count_;
    ++folded;
  }
  if (folded > 0) stats_.on_folded(folded);
}

void ParallelAggregator::worker_loop() {
  // The run buffer and the queue trade places at every wakeup, so once both
  // have grown to the largest run, taking work allocates nothing.
  std::vector<QueuedUpdate> run;
  for (;;) {
    {
      util::LockGuard lock(queue_mutex_);
      queue_cv_.wait(queue_mutex_, lock, [this] {
        queue_mutex_.assert_held();  // TSA: predicate runs under the wait lock
        return stopping_ || (!paused_ && !queue_.empty());
      });
      if (queue_.empty()) return;  // stopping
      queue_.swap(run);
      folding_ = true;
    }

    fold_run(run);
    run.clear();

    {
      util::LockGuard lock(queue_mutex_);
      folding_ = false;
    }
    drained_cv_.notify_all();
  }
}

void ParallelAggregator::drain() {
  util::LockGuard lock(queue_mutex_);
  drained_cv_.wait(queue_mutex_, lock, [this] {
    queue_mutex_.assert_held();
    return queue_.empty() && !folding_;
  });
}

ParallelAggregator::Reduced ParallelAggregator::reduce_and_reset_sums() {
  // Quiesce the shard before touching the intermediate.  The drained
  // predicate and the pause flag are evaluated/set under one queue_mutex_
  // critical section: everything enqueued before this call is folded, and
  // the worker cannot pick up anything enqueued after, so a racing enqueue
  // lands intact in the *next* buffer instead of being folded into an
  // intermediate that this reduce already summed-and-reset.  The same
  // handshake is the happens-before edge that makes the worker's plain
  // intermediate safe to read here, and the release below is the edge that
  // orders the reset before its next fold.  Waiting for !paused_ as well
  // admits one reducer at a time: two would read the same intermediate and
  // count its updates twice.
  {
    util::LockGuard lock(queue_mutex_);
    drained_cv_.wait(queue_mutex_, lock, [this] {
      queue_mutex_.assert_held();
      return !paused_ && queue_.empty() && !folding_;
    });
    paused_ = true;
  }
  // The intermediate added to zeros, as the cross-shard reduce adds shards.
  Reduced out;
  out.mean_delta.assign(model_size_, 0.0f);
  if (count_ > 0) {
    for (std::size_t i = 0; i < model_size_; ++i) {
      out.mean_delta[i] += weighted_delta_[i];
    }
    out.weight_sum += weight_sum_;
    out.count += count_;
    std::fill(weighted_delta_.begin(), weighted_delta_.end(), 0.0f);
    weight_sum_ = 0.0;
    count_ = 0;
  }
  {
    util::LockGuard lock(queue_mutex_);
    paused_ = false;
  }
  queue_cv_.notify_one();    // wake the worker for anything enqueued mid-reduce
  drained_cv_.notify_all();  // and any reducer waiting its turn
  return out;
}

}  // namespace papaya::fl
