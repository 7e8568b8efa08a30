#include "des/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

namespace paradyn::des {

EventQueue::EventQueue() : bucket_head_(kNumBuckets, kNpos), bucket_tail_(kNumBuckets, kNpos) {}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNpos) {
    const std::uint32_t slot = free_head_;
    free_head_ = next_[slot];
    return slot;
  }
  const std::size_t slot = allocated_;
  if ((slot & (kSlabSize - 1)) == 0) {
    slabs_.push_back(std::make_unique<Callback[]>(kSlabSize));
  }
  time_.push_back(0.0);
  next_.push_back(kNpos);
  generation_.push_back(0);
  state_.push_back(State::Free);
  ++allocated_;
  return static_cast<std::uint32_t>(slot);
}

void EventQueue::recycle(std::uint32_t slot) noexcept {
  callback_of(slot).reset();
  state_[slot] = State::Free;
  ++generation_[slot];
  next_[slot] = free_head_;
  free_head_ = slot;
}

std::size_t EventQueue::bucket_index(SimTime time) const noexcept {
  // floor((t - lo) * (1/w)), computed in floating point and clamped: times
  // before the window (possible after a drain/re-push) collapse into
  // bucket 0, and rounding stragglers at the upper edge collapse into the
  // last bucket.  Both clamps keep the time -> bucket map monotone, which
  // together with sorted buckets preserves global (time, seq) order.
  const double rel = (time - win_lo_) * inv_width_;
  if (!(rel > 0.0)) return 0;
  const auto index = static_cast<std::size_t>(rel);
  return index < kNumBuckets ? index : kNumBuckets - 1;
}

void EventQueue::insert_bucket(std::size_t index, std::uint32_t slot) noexcept {
  const SimTime time = time_[slot];
  const std::uint32_t tail = bucket_tail_[index];
  // At or after the tail — always for an empty bucket, and for every
  // same-instant burst such as timers re-armed at the same k * period —
  // the record appends in O(1).
  if (tail == kNpos || !(time < time_[tail])) {
    append_bucket(index, slot);
    return;
  }
  // Out of order: insertion sort by time.  The record sorts before the
  // tail, so the walk stops inside the list and the tail is unchanged; it
  // reads only the packed time column, never the callback slabs.
  std::uint32_t* link = &bucket_head_[index];
  while (!(time < time_[*link])) link = &next_[*link];
  next_[slot] = *link;
  *link = slot;
  ++in_buckets_;
  if (index < cursor_) cursor_ = index;
}

void EventQueue::append_bucket(std::size_t index, std::uint32_t slot) noexcept {
  const std::uint32_t tail = bucket_tail_[index];
  next_[slot] = kNpos;
  (tail == kNpos ? bucket_head_[index] : next_[tail]) = slot;
  bucket_tail_[index] = slot;
  ++in_buckets_;
  if (index < cursor_) cursor_ = index;
}

void EventQueue::link(std::uint32_t slot, SimTime time, std::uint64_t seq) {
  if (!window_valid_ || time >= win_hi_) {
    staging_.push_back(FarEntry{time, seq, slot});
    return;
  }
  insert_bucket(bucket_index(time), slot);
}

bool EventQueue::advance_window() {
  constexpr auto by_time_seq = [](const FarEntry& a, const FarEntry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  };

  if (!staging_.empty()) {
    // Fold the arrivals since the last advance into the ladder: sort just
    // the new entries, then one linear merge over inline keys.  The old
    // design re-sorted the whole far tier here, which turned large steady
    // queues into O(n log n) per window and sank the hold benchmark.
    std::sort(staging_.begin(), staging_.end(), by_time_seq);
    scratch_.clear();
    scratch_.reserve(ladder_.size() - ladder_head_ + staging_.size());
    std::merge(ladder_.begin() + static_cast<std::ptrdiff_t>(ladder_head_), ladder_.end(),
               staging_.begin(), staging_.end(), std::back_inserter(scratch_), by_time_seq);
    ladder_.swap(scratch_);
    ladder_head_ = 0;
    staging_.clear();
  }
  // Drop cancelled records from the ladder prefix.
  while (ladder_head_ < ladder_.size() &&
         state_[ladder_[ladder_head_].slot] == State::Cancelled) {
    recycle(ladder_[ladder_head_].slot);
    ++ladder_head_;
  }
  if (ladder_head_ == ladder_.size()) {
    ladder_.clear();
    ladder_head_ = 0;
    return false;
  }

  // Place the window at the earliest remaining time and match its width to
  // the event density *near the head* (~1 event per bucket).  A full-span
  // average would be skewed by a few far-future timers into a width that
  // piles every near event into bucket 0, degrading pushes to O(n)
  // insertion sort; only the head run's density determines pop cost.
  const std::size_t remaining = ladder_.size() - ladder_head_;
  const SimTime t_min = ladder_[ladder_head_].time;
  const std::size_t lead = std::min(remaining, kNumBuckets);
  const std::size_t sample = std::min<std::size_t>(lead, 32);
  SimTime width = 0.0;
  if (sample > 1) {
    width = (ladder_[ladder_head_ + sample - 1].time - t_min) /
            static_cast<SimTime>(sample - 1);
  }
  if (!(width > 0.0) && lead > 1) {
    // Same-time burst at the head: fall back to the whole leading run.
    width = (ladder_[ladder_head_ + lead - 1].time - t_min) /
            static_cast<SimTime>(lead - 1);
  }
  width_ = width;
  if (!(width_ > 0.0) || !std::isfinite(width_)) width_ = 1.0;
  inv_width_ = 1.0 / width_;
  win_lo_ = t_min;
  win_hi_ = win_lo_ + static_cast<SimTime>(kNumBuckets) * width_;
  window_valid_ = true;
  cursor_ = 0;

  // Migration starts from empty buckets and visits slots in ascending
  // (time, seq) through a monotone time -> bucket map, so every record
  // appends at its bucket's tail.  The per-slot state/link lookups are
  // data-dependent loads off the ladder, so prefetch the columns a few
  // entries ahead of the scan.
  constexpr std::size_t kPrefetchAhead = 8;
  while (ladder_head_ < ladder_.size()) {
    if (ladder_head_ + kPrefetchAhead < ladder_.size()) {
      const std::uint32_t ahead = ladder_[ladder_head_ + kPrefetchAhead].slot;
      prefetch(&state_[ahead]);
      prefetch(&next_[ahead]);
    }
    const FarEntry& entry = ladder_[ladder_head_];
    if (entry.time >= win_hi_) break;
    if (state_[entry.slot] == State::Cancelled) {
      recycle(entry.slot);
      ++ladder_head_;
      continue;
    }
    append_bucket(bucket_index(entry.time), entry.slot);
    ++ladder_head_;
  }
  if (ladder_head_ == ladder_.size()) {
    ladder_.clear();
    ladder_head_ = 0;
  }
  return in_buckets_ > 0 || ladder_head_ < ladder_.size();
}

std::uint32_t EventQueue::sweep_to_head() noexcept {
  while (in_buckets_ > 0) {
    while (bucket_head_[cursor_] == kNpos) ++cursor_;
    const std::uint32_t slot = bucket_head_[cursor_];
    if (state_[slot] == State::Cancelled) {
      unlink_head(slot);
      recycle(slot);
      continue;
    }
    return slot;
  }
  return kNpos;
}

void EventQueue::unlink_head(std::uint32_t slot) noexcept {
  const std::uint32_t next = next_[slot];
  bucket_head_[cursor_] = next;
  if (next == kNpos) bucket_tail_[cursor_] = kNpos;
  --in_buckets_;
}

std::optional<EventQueue::Fired> EventQueue::pop(SimTime limit, Bound bound) {
  for (;;) {
    const std::uint32_t slot = sweep_to_head();
    if (slot == kNpos) {
      if (!advance_window()) return std::nullopt;
      continue;
    }
    const SimTime time = time_[slot];
    if (bound == Bound::Inclusive ? time > limit : time >= limit) return std::nullopt;
    unlink_head(slot);
    state_[slot] = State::Firing;
    --live_;
    // The caller's next step is fire() — touch its callback line now — and
    // after that the drain revisits this bucket's successor's keys.
    prefetch(&callback_of(slot));
    if (next_[slot] != kNpos) prefetch(&time_[next_[slot]]);
    return Fired{time, slot};
  }
}

void EventQueue::fire(const Fired& fired) {
  // Invoke in place: the callback's slab address is stable even if the
  // callback pushes new events (which may grow the key columns), and the
  // slot is not recycled until the callback returns.  While state ==
  // Firing, pending() is false and cancel() is a no-op, so a self-cancel
  // from inside the callback is safe.
  callback_of(fired.slot)();
  recycle(fired.slot);
}

void EventQueue::discard(const Fired& fired) noexcept { recycle(fired.slot); }

std::optional<SimTime> EventQueue::peek_time() {
  for (;;) {
    const std::uint32_t slot = sweep_to_head();
    if (slot == kNpos) {
      if (!advance_window()) return std::nullopt;
      continue;
    }
    return time_[slot];
  }
}

void EventQueue::cancel(EventHandle& handle) noexcept {
  // A handle issued by a different queue is left untouched: resetting it
  // here would silently detach a still-live event.
  if (handle.queue_ != this) return;
  const std::uint32_t slot = handle.slot_;
  if (generation_[slot] == handle.generation_ && state_[slot] == State::Pending) {
    // Lazy cancellation: the record stays linked (bucket or overflow) and
    // is recycled when the sweep reaches it.  The callback is destroyed
    // now so captured resources are released promptly.
    state_[slot] = State::Cancelled;
    callback_of(slot).reset();
    --live_;
  }
  handle = EventHandle{};
}

}  // namespace paradyn::des
