#include "fl/agg_strategy.hpp"

#include <algorithm>
#include <mutex>  // std::once_flag for the striped lazy init (not a lock type)
#include <stdexcept>
#include <utility>

#include "fl/model_update.hpp"
#include "ml/math.hpp"
#include "util/sync.hpp"

namespace papaya::fl {

const char* to_string(AggStrategy strategy) {
  switch (strategy) {
    case AggStrategy::kAuto:
      return "auto";
    case AggStrategy::kLocked:
      return "locked";
    case AggStrategy::kMorsel:
      return "morsel";
    case AggStrategy::kStriped:
      return "striped";
  }
  return "unknown";
}

std::optional<AggStrategy> parse_agg_strategy(std::string_view name) {
  if (name == "auto") return AggStrategy::kAuto;
  if (name == "locked") return AggStrategy::kLocked;
  if (name == "morsel") return AggStrategy::kMorsel;
  if (name == "striped") return AggStrategy::kStriped;
  return std::nullopt;
}

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

void UpdateView::copy_to(std::span<float> out) const {
  if constexpr (std::endian::native == std::endian::little) {
    if (count > 0) std::memcpy(out.data(), payload, count * 4);
  } else {
    for (std::size_t i = 0; i < count; ++i) out[i] = at(i);
  }
}

namespace {

std::size_t normalized(std::size_t n) { return n == 0 ? 1 : n; }

/// The weighted fold every strategy performs, so results are bit-identical
/// wherever the fold order is: acc[i] += float(weight) * x[i].
void fold_span(std::span<float> acc, std::span<const float> x, double weight) {
  const float w = static_cast<float>(weight);
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += w * x[i];
}

/// With clipping on (`clip_norm` > 0), materialize `view` into `scratch` and
/// clip it there, since the clip is a whole-vector rescale.  Returns false
/// for an update holding a NaN or an infinity, which the caller drops.  With
/// clipping off the fold reads the wire bytes directly, so this does nothing.
bool clip_to_scratch(std::vector<float>& scratch, const UpdateView& view,
                     float clip_norm) {
  if (clip_norm <= 0.0f) return true;
  scratch.resize(view.count);
  view.copy_to(scratch);
  return ml::clip_norm(scratch, clip_norm);
}

// -- Locked (PR-2 baseline) --------------------------------------------------

/// One mutex-guarded intermediate aggregate.  The lock is a level-0 leaf in
/// the repo hierarchy (util/sync.hpp): never held while acquiring anything
/// else.  Pairing lock and data in one struct lets the thread-safety
/// analysis check every access: `slot.inter` is unreachable without holding
/// `slot.lock`.
struct LockedSlot {
  mutable util::Mutex lock;
  Intermediate inter PAPAYA_GUARDED_BY(lock);
};

class LockedStrategy final : public AggregationStrategy {
 public:
  explicit LockedStrategy(const StrategyContext& context)
      : context_(context), slots_(normalized(context.num_partitions)) {
    for (auto& slot : slots_) {
      util::LockGuard guard(slot.lock);
      slot.inter.weighted_delta.assign(context_.model_size, 0.0f);
    }
  }

  AggStrategy kind() const override { return AggStrategy::kLocked; }

  void fold_run(std::size_t worker,
                std::span<const QueuedUpdate> run) override {
    LockedSlot& slot = slots_[worker % slots_.size()];
    // Deserialize and clip outside any lock; a malformed update (or, when
    // clipping, a non-finite one) must not poison the aggregate, so it
    // simply drops out of the run.
    std::vector<std::pair<ModelUpdate, double>> folds;
    folds.reserve(run.size());
    for (const QueuedUpdate& queued : run) {
      ModelUpdate update = ModelUpdate::deserialize(queued.bytes);
      if (update.delta.size() != context_.model_size ||
          (context_.clip_norm > 0.0f &&
           !ml::clip_norm(update.delta, context_.clip_norm))) {
        if (context_.stats) context_.stats->on_dropped(1);
        continue;
      }
      folds.emplace_back(std::move(update), queued.weight);
    }
    if (folds.empty()) return;
    const bool contended = slot.lock.lock_reporting_contention();
    if (context_.stats) context_.stats->on_lock(contended);
    util::LockGuard guard(slot.lock, std::adopt_lock);
    for (const auto& [update, weight] : folds) {
      fold_span(slot.inter.weighted_delta, update.delta, weight);
      slot.inter.weight_sum += weight;
      ++slot.inter.count;
    }
    if (context_.stats) context_.stats->on_folded(folds.size());
  }

  void merge_and_reset(AggReduced& out) override {
    // All slots, in slot order, untouched ones included — exactly the
    // pre-strategy reduce, so a locked-only buffer is bit-identical to it.
    for (auto& slot : slots_) {
      util::LockGuard guard(slot.lock);
      Intermediate& inter = slot.inter;
      for (std::size_t i = 0; i < context_.model_size; ++i) {
        out.mean_delta[i] += inter.weighted_delta[i];
      }
      out.weight_sum += inter.weight_sum;
      out.count += inter.count;
      inter.weighted_delta.assign(context_.model_size, 0.0f);
      inter.weight_sum = 0.0;
      inter.count = 0;
    }
  }

  bool touched() const override {
    // Called with the pool quiesced, but take each leaf lock anyway: it is
    // uncontended there, costs nothing on the reduce path, and keeps the
    // compile-time discipline exception-free.
    for (const auto& slot : slots_) {
      util::LockGuard guard(slot.lock);
      if (slot.inter.count != 0 || slot.inter.weight_sum != 0.0) return true;
    }
    return false;
  }

 private:
  const StrategyContext context_;
  std::vector<LockedSlot> slots_;
};

// -- Morsel (thread-local pre-aggregation) -----------------------------------

/// One lock-protected global partition (the morsel spill/overflow target).
/// Level-0 leaf lock, like LockedSlot.
struct GlobalPartition {
  mutable util::Mutex lock;
  Intermediate inter PAPAYA_GUARDED_BY(lock);
};

class MorselStrategy final : public AggregationStrategy {
 public:
  explicit MorselStrategy(const StrategyContext& context)
      : context_(context),
        locals_(normalized(context.num_workers)),
        scratch_(locals_.size()),
        folds_since_spill_(locals_.size(), 0),
        globals_(normalized(context.num_partitions)) {
    // Thread-local accumulators are admitted against the byte budget; the
    // rest of the pool overflows into the locked global partitions (the
    // Leis-style pressure valve for our group-count-1 aggregate).
    const std::size_t per_local = context_.model_size * sizeof(float);
    max_locals_ =
        per_local == 0
            ? locals_.size()
            : std::min(locals_.size(),
                       context_.tuning.morsel_local_budget_bytes / per_local);
  }

  AggStrategy kind() const override { return AggStrategy::kMorsel; }

  void fold_run(std::size_t worker,
                std::span<const QueuedUpdate> run) override {
    const std::size_t w = worker % locals_.size();
    std::size_t folded = 0;
    for (const QueuedUpdate& queued : run) {
      const auto view = UpdateView::parse(queued.bytes, context_.model_size);
      if (!view || !clip_to_scratch(scratch_[w], *view, context_.clip_norm)) {
        if (context_.stats) context_.stats->on_dropped(1);
        continue;
      }
      if (w < max_locals_) {
        fold_local(w, *view, queued.weight);
      } else {
        fold_global(w, *view, queued.weight);
      }
      ++folded;
    }
    if (folded > 0 && context_.stats) context_.stats->on_folded(folded);
  }

  void merge_and_reset(AggReduced& out) override {
    // Global partitions first (partition order), then worker locals (worker
    // order): a fixed merge order, independent of which path each update
    // took.  Untouched accumulators are skipped so they cannot perturb the
    // sign of exact-zero sums contributed by another strategy.
    for (auto& global : globals_) {
      util::LockGuard guard(global.lock);
      merge_one(global.inter, out);
    }
    for (auto& local : locals_) merge_one(local, out);
  }

  bool touched() const override {
    for (const auto& g : globals_) {
      util::LockGuard guard(g.lock);
      if (g.inter.count != 0 || g.inter.weight_sum != 0.0) return true;
    }
    // Locals are worker-private by construction (one per worker index); the
    // quiesce handshake orders these reads after every fold.
    for (const auto& l : locals_) {
      if (l.count != 0 || l.weight_sum != 0.0) return true;
    }
    return false;
  }

 private:
  void merge_one(Intermediate& inter, AggReduced& out) {
    if (inter.count == 0 && inter.weight_sum == 0.0) return;
    for (std::size_t i = 0; i < context_.model_size; ++i) {
      out.mean_delta[i] += inter.weighted_delta[i];
    }
    out.weight_sum += inter.weight_sum;
    out.count += inter.count;
    inter.weighted_delta.assign(context_.model_size, 0.0f);
    inter.weight_sum = 0.0;
    inter.count = 0;
  }

  /// Zero-copy fold straight from the wire bytes (the morsel fast path); a
  /// clipped delta was materialized in the worker's scratch by fold_run,
  /// because the clip is a whole-vector rescale.  `w` only picks that
  /// scratch buffer.
  void fold_into(std::size_t w, Intermediate& inter, const UpdateView& view,
                 double weight) {
    if (inter.weighted_delta.empty()) {
      inter.weighted_delta.assign(context_.model_size, 0.0f);
    }
    if (context_.clip_norm > 0.0f) {
      fold_span(inter.weighted_delta, scratch_[w], weight);
    } else {
      const float w = static_cast<float>(weight);
      float* acc = inter.weighted_delta.data();
      for (std::size_t i = 0; i < view.count; ++i) acc[i] += w * view.at(i);
    }
    inter.weight_sum += weight;
    ++inter.count;
  }

  void fold_local(std::size_t w, const UpdateView& view, double weight) {
    fold_into(w, locals_[w], view, weight);
    if (context_.tuning.morsel_spill_every > 0 &&
        ++folds_since_spill_[w] >= context_.tuning.morsel_spill_every) {
      folds_since_spill_[w] = 0;
      spill_local(w);
    }
  }

  /// Flush a worker's local into its global partition under that partition's
  /// lock.  Exact: moves an already-formed partial sum, performs no extra
  /// per-update arithmetic.
  void spill_local(std::size_t w) {
    Intermediate& local = locals_[w];
    if (local.count == 0 && local.weight_sum == 0.0) return;
    GlobalPartition& partition = globals_[w % globals_.size()];
    const bool contended = partition.lock.lock_reporting_contention();
    if (context_.stats) context_.stats->on_lock(contended);
    util::LockGuard guard(partition.lock, std::adopt_lock);
    Intermediate& global = partition.inter;
    if (global.weighted_delta.empty()) {
      global.weighted_delta.assign(context_.model_size, 0.0f);
    }
    for (std::size_t i = 0; i < context_.model_size; ++i) {
      global.weighted_delta[i] += local.weighted_delta[i];
    }
    global.weight_sum += local.weight_sum;
    global.count += local.count;
    local.weighted_delta.assign(context_.model_size, 0.0f);
    local.weight_sum = 0.0;
    local.count = 0;
    if (context_.stats) context_.stats->on_spill();
  }

  /// Overflow path for workers beyond the local-buffer budget: fold into
  /// the shared partition under its lock, like the locked baseline.
  void fold_global(std::size_t w, const UpdateView& view, double weight) {
    GlobalPartition& partition = globals_[w % globals_.size()];
    const bool contended = partition.lock.lock_reporting_contention();
    if (context_.stats) context_.stats->on_lock(contended);
    util::LockGuard guard(partition.lock, std::adopt_lock);
    fold_into(w, partition.inter, view, weight);
  }

  const StrategyContext context_;
  std::vector<Intermediate> locals_;          ///< one per worker, lock-free
  std::vector<std::vector<float>> scratch_;   ///< per-worker clip buffers
  std::vector<std::size_t> folds_since_spill_;
  std::size_t max_locals_ = 0;
  std::vector<GlobalPartition> globals_;  ///< spill/overflow partitions
};

// -- Striped (atomic fold for small updates) ---------------------------------

class StripedStrategy final : public AggregationStrategy {
 public:
  explicit StripedStrategy(const StrategyContext& context)
      : context_(context), scratch_(normalized(context.num_workers)) {}

  AggStrategy kind() const override { return AggStrategy::kStriped; }

  void fold_run(std::size_t worker,
                std::span<const QueuedUpdate> run) override {
    if (run.empty()) return;
    ensure_accumulator();
    std::vector<float>& scratch = scratch_[worker % scratch_.size()];
    std::size_t folded = 0;
    for (const QueuedUpdate& queued : run) {
      const auto view = UpdateView::parse(queued.bytes, context_.model_size);
      if (!view || !clip_to_scratch(scratch, *view, context_.clip_norm)) {
        if (context_.stats) context_.stats->on_dropped(1);
        continue;
      }
      fold_one(worker, *view, queued.weight);
      ++folded;
    }
    if (folded > 0 && context_.stats) context_.stats->on_folded(folded);
  }

  void merge_and_reset(AggReduced& out) override {
    if (acc_) {
      for (std::size_t i = 0; i < context_.model_size; ++i) {
        out.mean_delta[i] += acc_[i].load(std::memory_order_relaxed);
        acc_[i].store(0.0f, std::memory_order_relaxed);
      }
    }
    out.weight_sum += weight_sum_.load(std::memory_order_relaxed);
    out.count += count_.load(std::memory_order_relaxed);
    weight_sum_.store(0.0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

  bool touched() const override {
    return count_.load(std::memory_order_relaxed) != 0 ||
           weight_sum_.load(std::memory_order_relaxed) != 0.0;
  }

 private:
  /// Elements a worker's starting offset advances per worker index: one
  /// 64-byte cache line of floats, so concurrent folds do not march down
  /// the accumulator in lockstep on the same lines.
  static constexpr std::size_t kStripeFloats = 16;

  void ensure_accumulator() {
    std::call_once(init_, [this] {
      acc_ = std::make_unique<std::atomic<float>[]>(context_.model_size);
      for (std::size_t i = 0; i < context_.model_size; ++i) {
        acc_[i].store(0.0f, std::memory_order_relaxed);
      }
    });
  }

  void atomic_add(std::atomic<float>& slot, float v) {
    // fetch_add on atomic<float> is a CAS loop on most targets — acceptable
    // because the picker only routes small updates here, where it is still
    // cheaper than a per-update mutex round-trip.
    slot.fetch_add(v, std::memory_order_relaxed);
  }

  void fold_one(std::size_t worker, const UpdateView& view, double weight) {
    const float w = static_cast<float>(weight);
    // Worker 0 starts at element 0, so a single-worker pool folds in the
    // same element order as the locked baseline (bit-identity).
    const std::size_t start =
        context_.model_size == 0
            ? 0
            : (worker * kStripeFloats) % context_.model_size;
    if (context_.clip_norm > 0.0f) {
      // fold_run clipped this update into the worker's scratch.
      const std::vector<float>& scratch = scratch_[worker % scratch_.size()];
      for (std::size_t k = start; k < view.count; ++k) {
        atomic_add(acc_[k], w * scratch[k]);
      }
      for (std::size_t k = 0; k < start; ++k) {
        atomic_add(acc_[k], w * scratch[k]);
      }
    } else {
      for (std::size_t k = start; k < view.count; ++k) {
        atomic_add(acc_[k], w * view.at(k));
      }
      for (std::size_t k = 0; k < start; ++k) {
        atomic_add(acc_[k], w * view.at(k));
      }
    }
    // No atomic<double>::fetch_add pre-C++20-TS on all targets; CAS-add.
    double seen = weight_sum_.load(std::memory_order_relaxed);
    while (!weight_sum_.compare_exchange_weak(seen, seen + weight,
                                              std::memory_order_relaxed)) {
    }
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  const StrategyContext context_;
  std::once_flag init_;
  std::unique_ptr<std::atomic<float>[]> acc_;  ///< lazily allocated
  std::vector<std::vector<float>> scratch_;    ///< per-worker clip buffers
  std::atomic<double> weight_sum_{0.0};
  std::atomic<std::uint64_t> count_{0};
};

}  // namespace

std::unique_ptr<AggregationStrategy> make_fold_strategy(
    AggStrategy kind, const StrategyContext& context) {
  switch (kind) {
    case AggStrategy::kLocked:
      return std::make_unique<LockedStrategy>(context);
    case AggStrategy::kMorsel:
      return std::make_unique<MorselStrategy>(context);
    case AggStrategy::kStriped:
      return std::make_unique<StripedStrategy>(context);
    case AggStrategy::kAuto:
      break;
  }
  throw std::invalid_argument(
      "make_fold_strategy: not a concrete fold strategy");
}

AggStrategy decide_strategy(const AggStatsSnapshot& window,
                            AggStrategy current, const AggTuning& tuning,
                            std::size_t num_workers) {
  if (window.enqueued == 0) return current;  // no signal yet: keep folding
  if (num_workers <= 1) {
    // No contention to avoid: the striped backend's per-element atomics are
    // pure overhead, and morsel's lock-free thread-local fold beats the
    // locked baseline on every update shape.
    return AggStrategy::kMorsel;
  }
  constexpr double kWireHeaderBytes = 32.0;  // UpdateView header
  const double avg = window.avg_update_bytes();
  const double payload = avg > kWireHeaderBytes ? avg - kWireHeaderBytes : avg;
  if (payload <= static_cast<double>(tuning.small_update_payload_bytes)) {
    return AggStrategy::kStriped;
  }
  return AggStrategy::kMorsel;
}

}  // namespace papaya::fl
