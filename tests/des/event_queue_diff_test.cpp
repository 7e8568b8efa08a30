// Differential determinism suite: the calendar EventQueue must produce a
// pop sequence bit-identical to the reference binary heap on randomized
// schedule/cancel/pop scripts.  This is the proof obligation for swapping
// the queue implementation under seeded experiments — (time, seq) order is
// the only thing the simulation results depend on, so equality here means
// every seeded run is unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "des/event_queue.hpp"
#include "des/random.hpp"
#include "support/heap_event_queue.hpp"

namespace paradyn::des {
namespace {

struct Popped {
  SimTime time;
  std::uint64_t tag;
  bool operator==(const Popped&) const = default;
};

/// Drives both queues through the same operation script and compares the
/// full pop sequences (time + per-push tag).
class LockstepDriver {
 public:
  void push(SimTime t) {
    const std::uint64_t tag = next_tag_++;
    handles_.emplace_back(calendar_.push(t, [this, t, tag] { calendar_out_.push_back({t, tag}); }),
                          heap_.push(t, [this, t, tag] { heap_out_.push_back({t, tag}); }));
    live_.push_back(handles_.size() - 1);
  }

  /// Cancel the k-th (mod live) not-yet-cancelled pushed event in both
  /// queues.  Popped events may be in the list too — cancelling those is a
  /// no-op in both implementations, which is itself worth exercising.
  void cancel(std::size_t k) {
    if (live_.empty()) return;
    const std::size_t idx = live_[k % live_.size()];
    EXPECT_EQ(handles_[idx].first.pending(), handles_[idx].second.pending());
    calendar_.cancel(handles_[idx].first);
    heap_.cancel(handles_[idx].second);
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(k % live_.size()));
  }

  /// Cancel the most recently pushed not-yet-cancelled event — for a
  /// same-instant burst, its bucket's tail record.
  void cancel_newest() {
    if (!live_.empty()) cancel(live_.size() - 1);
  }

  /// Bounded pop: the calendar queue's single-pass pop(limit, bound)
  /// against the heap's peek_time() + pop().  Returns whether an event
  /// fired.
  bool pop_bounded(SimTime limit, EventQueue::Bound bound) {
    auto c = calendar_.pop(limit, bound);
    const auto next = heap_.peek_time();
    const bool heap_due =
        next && (bound == EventQueue::Bound::Inclusive ? *next <= limit : *next < limit);
    EXPECT_EQ(c.has_value(), heap_due);
    if (!c || !heap_due) return false;
    auto h = heap_.pop();
    last_pop_time_ = c->time;
    calendar_.fire(*c);
    h->callback();
    EXPECT_EQ(calendar_out_.size(), heap_out_.size());
    EXPECT_EQ(calendar_out_.back(), heap_out_.back());
    return true;
  }

  /// Pop one event from each queue and fire it.
  void pop_one() {
    auto c = calendar_.pop();
    auto h = heap_.pop();
    ASSERT_EQ(c.has_value(), h.has_value());
    if (!c) return;
    last_pop_time_ = c->time;
    calendar_.fire(*c);
    h->callback();
    ASSERT_EQ(calendar_out_.size(), heap_out_.size());
    ASSERT_EQ(calendar_out_.back(), heap_out_.back());
  }

  void drain() {
    while (calendar_.size() > 0 || heap_.size() > 0) {
      pop_one();
      ASSERT_EQ(calendar_.size(), heap_.size());
    }
  }

  void compare() const {
    ASSERT_EQ(calendar_out_.size(), heap_out_.size());
    EXPECT_EQ(calendar_out_, heap_out_);
    EXPECT_EQ(calendar_.size(), heap_.size());
  }

  [[nodiscard]] SimTime last_pop_time() const noexcept { return last_pop_time_; }
  [[nodiscard]] std::size_t popped() const noexcept { return calendar_out_.size(); }

 private:
  EventQueue calendar_;
  HeapEventQueue heap_;
  std::vector<std::pair<EventHandle, HeapEventHandle>> handles_;
  std::vector<std::size_t> live_;
  std::vector<Popped> calendar_out_;
  std::vector<Popped> heap_out_;
  std::uint64_t next_tag_ = 0;
  SimTime last_pop_time_ = 0.0;
};

TEST(EventQueueDiff, RandomizedClusteredScript) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    LockstepDriver d;
    RngStream rng(seed, 17);
    SimTime horizon = 0.0;
    for (int op = 0; op < 20'000; ++op) {
      const double r = rng.next_double();
      if (r < 0.45) {
        // Clustered near-future push, occasionally far future.
        const double spread = rng.next_double() < 0.05 ? 1e6 : 100.0;
        d.push(horizon + rng.next_double() * spread);
      } else if (r < 0.55) {
        d.cancel(static_cast<std::size_t>(rng.next_double() * 1000.0));
      } else {
        d.pop_one();
        horizon = std::max(horizon, d.last_pop_time());
      }
    }
    d.drain();
    d.compare();
  }
}

TEST(EventQueueDiff, SameTimestampBursts) {
  LockstepDriver d;
  RngStream rng(42, 3);
  SimTime now = 0.0;
  for (int round = 0; round < 500; ++round) {
    // A burst of same-instant events — tie-breaking must be insertion order
    // in both queues.
    const SimTime t = now + rng.next_double() * 10.0;
    const int burst = 1 + static_cast<int>(rng.next_double() * 20.0);
    for (int i = 0; i < burst; ++i) d.push(t);
    if (rng.next_double() < 0.3) d.cancel(static_cast<std::size_t>(rng.next_double() * 64.0));
    for (int i = 0; i < burst / 2; ++i) d.pop_one();
    now = std::max(now, d.last_pop_time());
  }
  d.drain();
  d.compare();
}

TEST(EventQueueDiff, CancelRescheduleLoops) {
  // The daemon flush-timer pattern: arm a timer, cancel it, immediately
  // re-arm at a different time; interleave with pops.
  LockstepDriver d;
  RngStream rng(7, 29);
  SimTime now = 0.0;
  for (int round = 0; round < 5'000; ++round) {
    d.push(now + 50.0 + rng.next_double());
    d.cancel(0);  // cancel the oldest live event
    d.push(now + 25.0 + rng.next_double());
    if (rng.next_double() < 0.7) {
      d.pop_one();
      now = std::max(now, d.last_pop_time());
    }
  }
  d.drain();
  d.compare();
}

TEST(EventQueueDiff, UniformHorizonBulkLoad) {
  // Everything pushed up front across a wide horizon (overflow-tier heavy),
  // then drained — exercises sorting and repeated window migration.
  LockstepDriver d;
  RngStream rng(11, 5);
  for (int i = 0; i < 30'000; ++i) d.push(rng.next_double() * 1e6);
  for (int i = 0; i < 300; ++i) d.cancel(static_cast<std::size_t>(rng.next_double() * 30'000.0));
  d.drain();
  d.compare();
  EXPECT_EQ(d.popped(), 30'000u - 300u);
}

TEST(EventQueueDiff, SynchronizedTimerBurstsWithOutOfOrderPushes) {
  // The sampling-timer pattern: 32 timers re-armed at identical k * period
  // instants (every push of a burst appends at its bucket's tail), with
  // out-of-order pushes into the same buckets — just before a burst's
  // instant, and at it after the burst — interleaved.  Rounds drain with
  // the bounded pop, inclusive and exclusive, like run_until/run_before.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    LockstepDriver d;
    RngStream rng(seed, 41);
    constexpr SimTime kPeriod = 5'000.0;
    for (int round = 1; round <= 400; ++round) {
      const SimTime instant = kPeriod * round;
      for (int timer = 0; timer < 32; ++timer) {
        d.push(instant);
        if (rng.next_double() < 0.2) d.push(instant - rng.next_double() * 1e-6);
        if (rng.next_double() < 0.1) d.push(instant - kPeriod * rng.next_double());
      }
      if (rng.next_double() < 0.3) d.cancel_newest();
      d.push(instant);
      const auto bound =
          round % 2 == 0 ? EventQueue::Bound::Inclusive : EventQueue::Bound::Exclusive;
      while (d.pop_bounded(instant - kPeriod / 2, bound)) {
      }
    }
    d.drain();
    d.compare();
  }
}

TEST(EventQueueDiff, CancelledBucketTailThenAppend) {
  // Cancel the tail of a same-instant run, append behind it, then let the
  // sweep unlink the cancelled records (emptying the bucket) and append to
  // the emptied bucket again.
  LockstepDriver d;
  RngStream rng(5, 43);
  SimTime t = 100.0;
  for (int round = 0; round < 2'000; ++round) {
    const int burst = 1 + static_cast<int>(rng.next_double() * 6.0);
    for (int i = 0; i < burst; ++i) d.push(t);
    d.cancel_newest();
    d.push(t);
    if (rng.next_double() < 0.5) d.cancel_newest();
    if (rng.next_double() < 0.5) d.push(t + rng.next_double() * 1e-6);
    while (d.pop_bounded(t, EventQueue::Bound::Inclusive)) {
    }
    // The run at t is drained: its bucket is empty again (or holds only
    // the later straggler), and the next pushes land in it.
    d.push(t);
    d.cancel_newest();
    d.push(t);
    while (d.pop_bounded(t, EventQueue::Bound::Inclusive)) {
    }
    t += 1.0 + rng.next_double() * 10.0;
  }
  d.drain();
  d.compare();
}

TEST(EventQueueDiff, WindowMigrationThenTailAppends) {
  // Everything starts in the far tier, on a coarse grid of instants, so a
  // window advance migrates long same-time runs into buckets.  Pushes then
  // append behind the migrated tails (equal times: later seq) or insert
  // before them, and cancels hit migrated tails.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    LockstepDriver d;
    RngStream rng(seed, 47);
    const auto grid = [&rng] { return 10.0 * static_cast<int>(rng.next_double() * 200.0); };
    for (int i = 0; i < 4'000; ++i) d.push(1'000.0 + grid());
    d.pop_one();  // advances the window: migration
    for (int round = 0; round < 3'000; ++round) {
      const double r = rng.next_double();
      if (r < 0.4) {
        d.push(1'000.0 + grid());
      } else if (r < 0.55) {
        d.push(1'000.0 + grid() - rng.next_double() * 1e-3);
      } else if (r < 0.65) {
        d.cancel_newest();
      } else if (r < 0.7) {
        d.push(1e6 + rng.next_double() * 1e6);  // far tier again
      } else {
        d.pop_one();
      }
    }
    d.drain();
    d.compare();
  }
}

}  // namespace
}  // namespace paradyn::des
