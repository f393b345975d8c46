#pragma once
// Discrete-event simulation core: a virtual clock and an event queue.
//
// All wall-clock quantities in the reproduction (round durations, time to
// target loss, server updates per hour) are measured on this clock, so the
// comparisons between SyncFL and AsyncFL are ratios within one consistent
// time base (DESIGN.md substitution table).
//
// Pop order is a documented *total* order: (time, tie_key, seq), ascending.
// `seq` is the per-queue arrival number, so same-time same-key events pop
// FIFO.  Schedulers that need an order independent of scheduling order
// pass an explicit `tie_key` (an entity id, an actor index) and the pop
// order at that timestamp becomes a pure function of the keys.
//
// The queued record is a 32-byte POD (`kEventRecordBytes`): time, tie key,
// and a packed seq+kind word, plus a 32-bit entity id and a 32-bit scalar
// payload.  Million-device runs schedule tens of millions of events; at
// that scale the event record *is* the queue's memory footprint, so the
// queue stores no closures.  It has one scheduling surface: the owner
// passes its dispatcher — a plain function pointer plus context — to the
// constructor and schedules (kind, entity, payload) triples with
// schedule_event_at/in; every popped event goes to that dispatcher.
// Nothing is allocated per event, ever (verified by
// tests/event_engine_test.cpp).
//
// Two backends implement the same pop-order contract behind one API:
//
//   kCalendar  calendar queue (Brown, CACM 1988), the default.  Amortized
//              O(1) per op: a power-of-two ring of buckets each spanning
//              `width` seconds of virtual time; push links an event into
//              bucket floor(time/width) mod N, pop scans forward from a
//              cursor and takes the minimum of the first bucket holding an
//              event in its current "year" window.  Events live in one flat
//              free-list slab (intrusive u32 chains, 4 bytes of ring state
//              per bucket) so push/pop never allocate.  The ring
//              doubles/halves (rebuilding width from the live event span)
//              when the event count crosses 2N / N/4, so bucket occupancy
//              stays O(1).
//   kHeap      std::priority_queue.  O(log n) per op; kept only as the
//              reference the differential tests hold the calendar to.
//
// Because scheduling enforces when >= now(), equal-time events always
// share a bucket, and the calendar selects within a bucket by the full
// (time, tie_key, seq) comparator — it walks its unsorted chains for the
// exact minimum — so pop order is *identical* across the two backends,
// event for event (proven by differential tests and the end-to-end
// trajectory equality in tests/scale_test.cpp).
//
// Thread safety: none.  The queue is single-threaded by contract: every
// call — scheduling, inspection, step()/run_until() — comes from the one
// thread that pumps it, including calls made from inside the dispatcher.
// The simulator is the only production caller and never touches its queue
// from another thread.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <type_traits>
#include <vector>

namespace papaya::sim {

/// Event kind tag carried by the POD record; the owner assigns all 256
/// values.
using EventKind = std::uint8_t;

/// Per-queue dispatcher: a plain function pointer (no std::function — the
/// dispatcher itself must not be a hidden allocation) invoked for every
/// popped event.
using EventDispatchFn = void (*)(void* ctx, EventKind kind,
                                 std::uint32_t entity, std::uint32_t payload,
                                 double now);

enum class EventQueueBackend {
  kHeap,      ///< std::priority_queue, O(log n) — differential-test oracle
  kCalendar,  ///< calendar queue, amortized O(1) — the default
};

class EventQueue {
 public:
  /// Size of one queued event record.  The macro-population bench budgets
  /// queue memory as pending * kEventRecordBytes; the static_assert below
  /// keeps the record honest.
  static constexpr std::size_t kEventRecordBytes = 32;

  /// Every popped event goes to `dispatch(ctx, kind, entity, payload,
  /// time)`.  A null `dispatch` throws std::invalid_argument: a queue with
  /// nowhere to send an event could only drop it.
  EventQueue(EventDispatchFn dispatch, void* ctx,
             EventQueueBackend backend = EventQueueBackend::kCalendar);

  EventQueueBackend backend() const { return backend_; }

  /// Schedule an event — no allocation, ever.  Unless `when` is finite and
  /// >= now(), throws std::invalid_argument and enqueues nothing: a past
  /// timestamp would pop "before" the current time and silently corrupt
  /// clock monotonicity, a NaN breaks the comparator's strict weak
  /// ordering, and the calendar's bucket math is undefined for non-finite
  /// times.
  void schedule_event_at(double when, std::uint64_t tie_key, EventKind kind,
                         std::uint32_t entity, std::uint32_t payload);
  /// Same, `delay` seconds after now() (the resulting time is checked the
  /// same way, so a negative or non-finite delay throws).
  void schedule_event_in(double delay, std::uint64_t tie_key, EventKind kind,
                         std::uint32_t entity, std::uint32_t payload);

  double now() const { return now_; }
  bool empty() const { return pending() == 0; }
  std::size_t pending() const {
    return backend_ == EventQueueBackend::kCalendar ? calendar_.size()
                                                    : heap_.size();
  }
  /// Events popped (run) so far — the denominator for events/sec reporting
  /// in bench_macro_population.
  std::uint64_t events_processed() const { return processed_; }

  /// Pop and dispatch the next event.  Returns false when the queue is empty.
  bool step();

  /// Run until the queue empties, `until` is reached, or `stop` returns
  /// true (checked between events).  Unless `stop` ended the run, the clock
  /// then moves up to `until`.  A +inf `until` is no deadline: the clock
  /// stays at the last event, never at infinity.  A NaN `until` throws
  /// std::invalid_argument before anything runs.
  void run_until(double until, const std::function<bool()>& stop = nullptr);

 private:
  // The queued record.  `seq_kind` packs the 56-bit arrival number above
  // the 8-bit kind: seqs are unique per queue, so comparing seq_kind is
  // exactly comparing seq (the kind bits can never break a tie), and 2^56
  // events is ~2000 years of popping at the 10M-device rate.
  struct Event {
    double time;
    std::uint64_t tie_key;   // caller-chosen order among simultaneous events
    std::uint64_t seq_kind;  // (arrival seq << 8) | kind
    std::uint32_t entity;
    std::uint32_t payload;
  };
  static_assert(sizeof(Event) == kEventRecordBytes,
                "event record must stay 32 bytes — the macro bench's memory "
                "budget and the ISSUE acceptance depend on it");
  static_assert(std::is_trivially_copyable_v<Event>,
                "event record must be POD: backends memmove it freely");

  static EventKind kind_of(const Event& e) {
    return static_cast<EventKind>(e.seq_kind & 0xff);
  }
  static bool earlier(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.tie_key != b.tie_key) return a.tie_key < b.tie_key;
    return a.seq_kind < b.seq_kind;  // == comparing seq: seqs are unique
  }
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return earlier(b, a);
    }
  };

  /// Brown's calendar queue.
  ///
  /// Storage is an intrusive free-list slab, not a vector-of-vectors: all
  /// events live in one flat Node array and each ring bucket is a 4-byte
  /// head index into an unsorted singly-linked chain.  At ten million
  /// pending events this is what makes push O(1) in *allocations*, not
  /// just comparisons — a sorted-vector bucket design spends most of the
  /// macro bench inside insert (a malloc for every first-touch bucket, a
  /// memmove per insert, and ~24 B of vector header per bucket probed in
  /// random order), while the slab recycles popped slots through a free
  /// list and keeps the whole ring's occupancy check inside a dense u32
  /// array.  Buckets are unsorted; pop walks the (O(1) expected length)
  /// chain for the minimum under the full (time, tie_key, seq) order, so
  /// the pop order is exactly the sorted-bucket order.
  class Calendar {
   public:
    Calendar();
    void push(Event e);
    Event pop_min();  ///< requires !empty()
    /// Time of the minimum event (requires !empty()).  Caches the min's
    /// location, so the pop that follows does not re-scan.
    double min_time();
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

   private:
    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
    struct Node {
      Event e;
      std::uint32_t next;
    };

    std::uint64_t virtual_bucket(double time) const;
    void locate_min();  ///< fills min_node_/min_prev_/min_ring_
    void rebuild(std::size_t min_buckets);
    /// Walk one bucket chain for its minimum; fills min_node_/min_prev_.
    void chain_min(std::uint32_t head);

    std::vector<Node> slab_;          ///< stable event storage
    std::vector<std::uint32_t> free_; ///< recycled slab slots
    std::vector<std::uint32_t> heads_;  ///< ring: chain head per bucket
    double width_ = 1.0;        ///< seconds of virtual time per bucket
    /// Ring mask (heads_.size() - 1; the ring is always a power of two).
    /// Bucket indexing runs on every push and on every year-scan probe —
    /// `v & mask_` instead of `v % size()` keeps a hardware divide off the
    /// pop path.
    std::size_t mask_ = 0;
    /// Scan floor: <= the home bucket of every queued event (see
    /// locate_min for why pop order depends on this invariant).
    std::uint64_t cursor_ = 0;
    std::size_t size_ = 0;
    std::vector<std::uint32_t> relink_scratch_;  ///< rebuild work list
    // Min location cache (valid while min_cached_): min_time() followed by
    // pop_min() locates once.
    bool min_cached_ = false;
    std::uint32_t min_node_ = kNil;
    std::uint32_t min_prev_ = kNil;  ///< predecessor in chain (kNil: head)
    std::size_t min_ring_ = 0;       ///< ring index of the min's bucket
  };

  /// Throws std::invalid_argument unless `when` is finite and >= now_.
  void check_time(double when) const;
  void push(Event e);
  Event pop();
  double top_time();  ///< requires non-empty

  const EventQueueBackend backend_;
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  Calendar calendar_;
  const EventDispatchFn dispatcher_;
  void* const dispatcher_ctx_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace papaya::sim
