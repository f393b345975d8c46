#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace papaya::sim {
namespace {

// Ring sizing: never below kMinBuckets (tiny queues stay tiny), never above
// kMaxBuckets (a pathological width estimate must not allocate the world).
constexpr std::size_t kMinBuckets = 8;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 23;

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// Calendar backend
// ---------------------------------------------------------------------------

EventQueue::Calendar::Calendar()
    : heads_(kMinBuckets, kNil), mask_(kMinBuckets - 1) {}

std::uint64_t EventQueue::Calendar::virtual_bucket(double time) const {
  // One shared expression for push, the year scan and the sparse jump so an
  // event's home bucket is computed identically everywhere (floating-point
  // division must not disagree with itself).
  return static_cast<std::uint64_t>(time / width_);
}

void EventQueue::Calendar::push(Event e) {
  const std::uint64_t v = virtual_bucket(e.time);
  // Keep the scan invariant `cursor_ <= home(e) for every queued event` on
  // the push side too: an event may legally arrive with a time below the
  // current minimum (any t >= the last pop is valid, and the cursor sits at
  // the minimum's home, not at now's).  Without the pull-back such an event
  // is stranded — the year scan never looks behind the cursor, so it would
  // pop arbitrarily late.
  cursor_ = std::min(cursor_, v);
  std::uint32_t node;
  if (!free_.empty()) {
    node = free_.back();
    free_.pop_back();
  } else {
    node = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  std::uint32_t& head = heads_[v & mask_];
  slab_[node].e = e;
  slab_[node].next = head;
  head = node;
  ++size_;
  min_cached_ = false;
  if (size_ > 2 * heads_.size() && heads_.size() < kMaxBuckets) {
    rebuild(size_);
  }
}

void EventQueue::Calendar::chain_min(std::uint32_t head) {
  // Unsorted chains: the bucket minimum under the full (time, tie_key,
  // seq) order is found by a walk.  Expected chain length is O(1) — the
  // width heuristic keeps mean occupancy near 2 events per non-empty
  // bucket.
  min_node_ = head;
  min_prev_ = kNil;
  std::uint32_t prev = head;
  for (std::uint32_t cur = slab_[head].next; cur != kNil;
       prev = cur, cur = slab_[cur].next) {
    if (earlier(slab_[cur].e, slab_[min_node_].e)) {
      min_node_ = cur;
      min_prev_ = prev;
    }
  }
}

void EventQueue::Calendar::locate_min() {
  // Scan one "year" forward from the cursor.  A bucket's minimum qualifies
  // when the scanned virtual bucket is its home bucket — the same
  // time/width expression push used, so floating-point rounding at bucket
  // edges can never disagree with insertion.  The scan relies on one
  // invariant: cursor_ <= home(e) for every queued event.  It is
  // maintained at every cursor write — push() pulls the cursor back behind
  // a low arrival, the scan and the sparse jump set it to the located
  // minimum's home, and rebuild() re-anchors it at the new minimum's home
  // — so the first qualifying bucket minimum is the global minimum under
  // the full (time, tie_key, seq) order: virtual_bucket is monotone in
  // time, so an earlier-timed event would live in an earlier-or-equal
  // virtual bucket already scanned (where its bucket's minimum would
  // itself have qualified no later than it).
  if (min_cached_) return;
  const std::size_t n = heads_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t v = cursor_ + i;
    const std::uint32_t head = heads_[v & mask_];
    if (head == kNil) continue;
    chain_min(head);
    if (virtual_bucket(slab_[min_node_].e.time) == v) {
      cursor_ = v;
      min_ring_ = v & mask_;
      min_cached_ = true;
      return;
    }
  }
  // Sparse year: nothing within a full ring revolution.  Fall back to a
  // direct min over every chain and jump the cursor to its bucket — the
  // classic calendar-queue "empty year" escape hatch.
  std::uint32_t best = kNil;
  std::uint32_t best_prev = kNil;
  std::size_t best_ring = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (heads_[i] == kNil) continue;
    chain_min(heads_[i]);
    if (best == kNil || earlier(slab_[min_node_].e, slab_[best].e)) {
      best = min_node_;
      best_prev = min_prev_;
      best_ring = i;
    }
  }
  min_node_ = best;
  min_prev_ = best_prev;
  min_ring_ = best_ring;
  min_cached_ = true;
  cursor_ = virtual_bucket(slab_[best].e.time);
}

double EventQueue::Calendar::min_time() {
  locate_min();
  return slab_[min_node_].e.time;
}

EventQueue::Event EventQueue::Calendar::pop_min() {
  locate_min();
  const std::uint32_t node = min_node_;
  const Event e = slab_[node].e;
  if (min_prev_ == kNil) {
    heads_[min_ring_] = slab_[node].next;
  } else {
    slab_[min_prev_].next = slab_[node].next;
  }
  free_.push_back(node);
  --size_;
  min_cached_ = false;
  if (heads_.size() > kMinBuckets && size_ < heads_.size() / 4) {
    rebuild(kMinBuckets);
  }
  return e;
}

void EventQueue::Calendar::rebuild(std::size_t min_buckets) {
  // Collect the live slots (the slab also holds free slots, so walk the
  // chains), then relink them under the re-tuned width.  No event moves in
  // memory and nothing is allocated per event — a rebuild is O(live)
  // pointer writes.
  relink_scratch_.clear();
  relink_scratch_.reserve(size_);
  double lo = 0.0;
  double hi = 0.0;
  bool first = true;
  for (const std::uint32_t head : heads_) {
    for (std::uint32_t cur = head; cur != kNil; cur = slab_[cur].next) {
      const double t = slab_[cur].e.time;
      if (first || t < lo) lo = t;
      if (first || t > hi) hi = t;
      first = false;
      relink_scratch_.push_back(cur);
    }
  }
  // Bucket width ~ 2x the mean inter-event gap (Brown's heuristic): the
  // year scan then lands on a non-empty qualifying bucket within O(1)
  // probes on average.  Clamped below so (a) a degenerate span (all events
  // simultaneous) keeps a sane width and (b) time/width stays far from
  // uint64 overflow for any simulated horizon.
  double width = 1.0;
  if (relink_scratch_.size() > 1 && hi > lo) {
    width = 2.0 * (hi - lo) / static_cast<double>(relink_scratch_.size());
  }
  width_ = std::max({width, 1e-9, hi * 0x1p-40});
  const std::size_t n = std::min(
      kMaxBuckets, next_pow2(std::max(min_buckets, kMinBuckets)));
  heads_.assign(n, kNil);
  mask_ = n - 1;
#ifdef __linux__
  // Million-bucket rings are probed in random order by push and the year
  // scan; backing the head array with huge pages cuts the TLB cost.
  // Advisory — a no-op where THP is unavailable.
  if (n >= (std::size_t{1} << 20)) {
    madvise(heads_.data(), n * sizeof(heads_[0]), MADV_HUGEPAGE);
  }
#endif
  for (const std::uint32_t node : relink_scratch_) {
    std::uint32_t& head = heads_[virtual_bucket(slab_[node].e.time) & mask_];
    slab_[node].next = head;
    head = node;
  }
  min_cached_ = false;
  // Re-anchor the cursor at the current minimum's home.  This is only an
  // upper bound on where the cursor may sit: a *future* push can still
  // arrive anywhere in [last-pop, lo) — e.g. the 10M-device seeding loop
  // rebuilds mid-seed, then later devices draw check-in times below the
  // min seeded so far — and push() pulls the cursor back when it does.
  cursor_ = first ? 0 : virtual_bucket(std::max(lo, 0.0));
}

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

EventQueue::EventQueue(EventDispatchFn dispatch, void* ctx,
                       EventQueueBackend backend)
    : backend_(backend), dispatcher_(dispatch), dispatcher_ctx_(ctx) {
  if (dispatch == nullptr) {
    throw std::invalid_argument("EventQueue: null dispatcher");
  }
}

void EventQueue::push(Event e) {
  if (backend_ == EventQueueBackend::kCalendar) {
    calendar_.push(e);
  } else {
    heap_.push(e);
  }
}

EventQueue::Event EventQueue::pop() {
  if (backend_ == EventQueueBackend::kCalendar) return calendar_.pop_min();
  Event e = heap_.top();
  heap_.pop();
  return e;
}

double EventQueue::top_time() {
  return backend_ == EventQueueBackend::kCalendar ? calendar_.min_time()
                                                  : heap_.top().time;
}

void EventQueue::check_time(double when) const {
  // One guard for past and non-finite times: `when < now_` alone is false
  // for NaN, which would break the heap's strict weak ordering and make
  // the calendar's time/width conversion undefined (as would +-inf).
  if (!(std::isfinite(when) && when >= now_)) {
    throw std::invalid_argument(
        "EventQueue: cannot schedule in the past or at a non-finite time");
  }
}

void EventQueue::schedule_event_at(double when, std::uint64_t tie_key,
                                   EventKind kind, std::uint32_t entity,
                                   std::uint32_t payload) {
  check_time(when);
  push({when, tie_key, (next_seq_++ << 8) | kind, entity, payload});
}

void EventQueue::schedule_event_in(double delay, std::uint64_t tie_key,
                                   EventKind kind, std::uint32_t entity,
                                   std::uint32_t payload) {
  schedule_event_at(now_ + delay, tie_key, kind, entity, payload);
}

bool EventQueue::step() {
  if (empty()) return false;
  const Event e = pop();
  now_ = e.time;
  ++processed_;
  dispatcher_(dispatcher_ctx_, kind_of(e), e.entity, e.payload, e.time);
  return true;
}

void EventQueue::run_until(double until, const std::function<bool()>& stop) {
  // A NaN deadline compares false against every time, so it would run
  // nothing and return as if the deadline had passed.
  if (std::isnan(until)) {
    throw std::invalid_argument("EventQueue: run_until deadline is NaN");
  }
  while (!empty() && top_time() <= until) {
    if (stop && stop()) return;
    step();
  }
  if (stop && stop()) return;
  // +inf is no deadline: the clock stays finite so scheduling still works.
  if (now_ < until && std::isfinite(until)) now_ = until;
}

}  // namespace papaya::sim
