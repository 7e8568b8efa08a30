// Pending-event set for the discrete-event engine.
//
// A two-tier calendar queue over slab-pooled event records, tuned for the
// engine's strongly time-clustered workload:
//
//  * Near tier — a window of `kNumBuckets` buckets, each `width` of
//    simulated time wide.  An event whose time falls inside the window is
//    insertion-sorted into its bucket's intrusive list; with the width
//    adapted to roughly one live event per bucket, push and pop are O(1)
//    amortized.  Each bucket also tracks its tail, so a push that sorts at
//    or after the tail — every push of a same-instant burst, such as
//    sampling timers re-armed at the same k * period — appends in O(1)
//    instead of walking the run.  A cursor sweeps the window monotonically,
//    so pop never rescans drained buckets.
//  * Far tier — events beyond the window land in an unsorted staging
//    buffer of (time, seq, slot) tuples.  When the near tier drains, the
//    window advances: the staging buffer is sorted and merged into the
//    sorted ladder (one linear, cache-friendly pass over inline keys — the
//    comparator never touches per-slot storage), a fresh window is placed
//    at the ladder's earliest time with a width derived from the event
//    density near its head, and the leading run is migrated into buckets.
//
// Storage is structure-of-arrays: the hot traversal keys — event times,
// intrusive links, lifecycle state, ABA generations —
// live in dense per-slot vectors, so bucket walks, sweeps, and ladder
// checks touch only packed key lines instead of dragging each record's
// callback bytes through the cache (the AoS record was ~128 bytes, of
// which a traversal used 21).  Callbacks alone stay in fixed slabs with
// stable addresses: fire() runs a callback in place while that callback
// may push new events and grow the key vectors, so callback storage must
// never move.  Slots are recycled through a free list; steady-state
// scheduling does not allocate.
//
// A record's (slot, generation) pair doubles as the cancellation handle;
// the generation counter is bumped on every recycle so a stale handle can
// never cancel the slot's next tenant (ABA protection).
//
// Ordering contract (identical to the binary-heap implementation this
// replaced, bit-for-bit — see tests/des/event_queue_diff_test.cpp): events
// pop in (time, insertion sequence) order, so two events scheduled for the
// same instant fire in the order they were scheduled.  Cancellation is
// lazy: a cancelled record stays linked but is skipped and recycled when
// the sweep reaches it.
//
// Event lifecycle: Pending (scheduled, cancellable) -> Firing (popped, its
// callback is executing; pending() is false and cancel() is a no-op) ->
// recycled.  cancel() moves Pending -> recycled directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "des/inline_function.hpp"
#include "des/time.hpp"

namespace paradyn::des {

class EventQueue;

/// Handle to a scheduled event; allows cancellation.  Default-constructed
/// handles refer to no event and are safe to cancel (a no-op).  A handle is
/// a (queue, slot, generation) triple — copying is trivial, and a handle
/// must not outlive its queue.
class EventHandle {
 public:
  EventHandle() noexcept = default;

  /// True if the event is still pending (not firing, not fired, not
  /// cancelled).  A stale handle whose slot was recycled reports false.
  [[nodiscard]] bool pending() const noexcept;

 private:
  friend class EventQueue;
  EventHandle(const EventQueue* queue, std::uint32_t slot, std::uint32_t generation) noexcept
      : queue_(queue), slot_(slot), generation_(generation) {}

  const EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

class EventQueue {
 public:
  /// Inline capture budget per event.  Sized to hold a moved-in
  /// rocc::SmallCallback (itself a 64-byte-capture InlineFunction) with
  /// room to spare; larger captures are a compile error, not a heap
  /// allocation.
  static constexpr std::size_t kCallbackCapacity = 96;
  using Callback = InlineFunction<kCallbackCapacity>;

  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Insert an event; returns a handle usable for cancellation.
  template <typename F>
  EventHandle push(SimTime time, F&& callback) {
    const std::uint32_t slot = acquire_slot();
    time_[slot] = time;
    callback_of(slot).emplace(std::forward<F>(callback));
    state_[slot] = State::Pending;
    const std::uint32_t generation = generation_[slot];
    link(slot, time, next_seq_++);
    ++live_;
    return EventHandle{this, slot, generation};
  }

  /// Cancel a pending event.  Safe on empty/stale/fired handles and on an
  /// event that is currently firing (no-op in all those cases).
  void cancel(EventHandle& handle) noexcept;

  /// The earliest live event, removed from the pending set and marked
  /// Firing.  Pass it to fire() to run the callback and recycle the slot,
  /// or discard() to recycle without running.
  struct Fired {
    SimTime time = 0;
    std::uint32_t slot = 0;
  };
  [[nodiscard]] std::optional<Fired> pop() {
    return pop(std::numeric_limits<SimTime>::infinity(), Bound::Inclusive);
  }

  /// Whether a bounded pop accepts an event exactly at its limit.
  enum class Bound : std::uint8_t { Inclusive, Exclusive };

  /// pop(), but only if the earliest live event's time is <= `limit`
  /// (Inclusive) or < `limit` (Exclusive); otherwise nullopt, and the event
  /// stays pending.  One pass to the head, where peek_time() + pop() took
  /// two.
  [[nodiscard]] std::optional<Fired> pop(SimTime limit, Bound bound);

  /// Invoke the popped event's callback, then recycle its record.
  void fire(const Fired& fired);

  /// Recycle a popped event's record without invoking the callback.
  void discard(const Fired& fired) noexcept;

  /// Time of the earliest live event, if any.
  [[nodiscard]] std::optional<SimTime> peek_time();

  /// Number of live (pending, non-cancelled) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }

  /// Slots ever allocated (slab pool footprint; for tests and metrics —
  /// steady-state workloads should see this plateau while events churn).
  [[nodiscard]] std::size_t allocated_slots() const noexcept { return allocated_; }

 private:
  friend class EventHandle;

  enum class State : std::uint8_t { Free, Pending, Firing, Cancelled };

  static constexpr std::uint32_t kNpos = 0xffffffffu;
  /// Window size: more buckets means rarer (amortized-cheaper) ladder
  /// merges for large queues at 32 KiB of bucket heads; empty buckets cost
  /// nothing to skip because the sweep short-circuits on in_buckets_ == 0.
  static constexpr std::size_t kNumBuckets = 8192;
  static constexpr std::size_t kSlabShift = 8;  ///< 256 callbacks per slab.
  static constexpr std::size_t kSlabSize = std::size_t{1} << kSlabShift;

  /// Callback storage is the one column that must not move: fire() runs it
  /// in place while the callback may push events and grow the key vectors.
  [[nodiscard]] Callback& callback_of(std::uint32_t slot) noexcept {
    return slabs_[slot >> kSlabShift][slot & (kSlabSize - 1)];
  }

  static void prefetch(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p);
#else
    (void)p;
#endif
  }

  std::uint32_t acquire_slot();
  void recycle(std::uint32_t slot) noexcept;

  /// Route a newly pushed record into its bucket or the far tier.
  void link(std::uint32_t slot, SimTime time, std::uint64_t seq);
  /// Link a newly pushed record into its bucket.  Its seq is the largest
  /// issued, so it sorts after every record of equal time: the time alone
  /// decides its place.
  void insert_bucket(std::size_t index, std::uint32_t slot) noexcept;
  /// Link a record that sorts after every record in its bucket.
  void append_bucket(std::size_t index, std::uint32_t slot) noexcept;
  [[nodiscard]] std::size_t bucket_index(SimTime time) const noexcept;

  /// Advance the window over the far tier.  Returns false when the far
  /// tier is empty (the queue holds no more events).
  bool advance_window();

  /// First pending record in the near tier, recycling cancelled records
  /// encountered on the way.  kNpos when the near tier is drained.
  std::uint32_t sweep_to_head() noexcept;
  /// Unlink the head record of the cursor's bucket.
  void unlink_head(std::uint32_t slot) noexcept;

  // Per-slot key columns (SoA), indexed by slot id; grown only in
  // acquire_slot.  Traversals touch these and never the callback slabs.
  // No seq column: within a bucket, list order is insertion order among
  // equal times, and the far tier carries seq in its tuples.
  std::vector<SimTime> time_;
  std::vector<std::uint32_t> next_;        ///< Intrusive link: bucket or free list.
  std::vector<std::uint32_t> generation_;  ///< Bumped on recycle (ABA guard).
  std::vector<State> state_;

  // Callback slabs (stable addresses) + free list.
  std::vector<std::unique_ptr<Callback[]>> slabs_;
  std::uint32_t free_head_ = kNpos;
  std::size_t allocated_ = 0;

  // Near tier.  Each bucket is an intrusive list sorted by (time, seq);
  // bucket_tail_ holds its last record (kNpos when empty) for O(1) appends.
  std::vector<std::uint32_t> bucket_head_;
  std::vector<std::uint32_t> bucket_tail_;
  std::size_t cursor_ = 0;          ///< First bucket that may hold records.
  std::size_t in_buckets_ = 0;      ///< Records linked in buckets (any state).
  bool window_valid_ = false;
  SimTime win_lo_ = 0.0;
  SimTime win_hi_ = 0.0;
  SimTime width_ = 1.0;
  SimTime inv_width_ = 1.0;  ///< 1/width_: bucket mapping multiplies, never divides.

  // Far tier.  The sort keys are carried inline so sorting and merging are
  // sequential over 24-byte tuples instead of chasing per-slot columns.
  struct FarEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Sorted by (time, seq) ascending; [0, ladder_head_) is consumed.
  std::vector<FarEntry> ladder_;
  std::size_t ladder_head_ = 0;
  /// Unsorted arrivals since the last window advance.
  std::vector<FarEntry> staging_;
  std::vector<FarEntry> scratch_;  ///< Merge target, kept to reuse capacity.

  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

inline bool EventHandle::pending() const noexcept {
  if (queue_ == nullptr) return false;
  return queue_->generation_[slot_] == generation_ &&
         queue_->state_[slot_] == EventQueue::State::Pending;
}

}  // namespace paradyn::des
