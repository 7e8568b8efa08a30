// The discrete-event simulation engine.
//
// Classic event-scheduling world view: model components register callbacks
// at future simulation times; the engine pops them in (time, seq) order and
// advances the clock.  Components never see time move backwards, and events
// scheduled "now" from inside a callback run after the current callback
// returns (still at the same clock value, in scheduling order).
#pragma once

#include <cstdint>
#include <stdexcept>

#include "des/event_queue.hpp"
#include "des/time.hpp"

namespace paradyn::obs {
class Tracer;
}

namespace paradyn::des {

class Engine {
 public:
  using Callback = EventQueue::Callback;

  /// Current simulation time (microseconds).
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule a callback at absolute time `t` (must be >= now()).  The
  /// callable is stored inline in the pooled event record — a capture
  /// larger than EventQueue::kCallbackCapacity is a compile error.
  template <typename F>
  EventHandle schedule_at(SimTime t, F&& cb) {
    if (t < now_) throw std::invalid_argument("Engine::schedule_at: time in the past");
    return queue_.push(t, std::forward<F>(cb));
  }

  /// Schedule a callback `dt` from now (dt must be >= 0).
  template <typename F>
  EventHandle schedule_after(SimTime dt, F&& cb) {
    return schedule_at(now_ + dt, std::forward<F>(cb));
  }

  /// Cancel a pending event (no-op if already fired/cancelled).
  void cancel(EventHandle& handle) noexcept { queue_.cancel(handle); }

  /// Run until the event queue is exhausted or stop() is called.
  /// Returns the number of events executed.
  std::uint64_t run();

  /// Run events with time <= t_end, then set the clock to exactly t_end.
  /// Returns the number of events executed.
  std::uint64_t run_until(SimTime t_end);

  /// Run events with time strictly < t_end, then set the clock to exactly
  /// t_end.  Conservative-window PDES needs this exclusive variant for
  /// interior window horizons: an event scheduled exactly at the horizon
  /// belongs to the *next* window, after cross-shard messages for that
  /// instant have been injected.  Returns the number of events executed.
  std::uint64_t run_before(SimTime t_end);

  /// Request that the current run() / run_until() return after the current
  /// event completes.
  void stop() noexcept { stopping_ = true; }

  /// True if no live events remain.
  [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }

  /// Live events currently pending.
  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.size(); }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }

  /// Attach (or detach, with nullptr) a trace sink.  When attached, the
  /// engine records one span per executed event on obs::kEngineTrack; the
  /// span extends to the next event's execution time, so the spans tile the
  /// simulated timeline.  Disabled tracing costs one branch per event.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }
  [[nodiscard]] obs::Tracer* tracer() const noexcept { return tracer_; }

 private:
  /// Fire events in order while the next one is within `limit` (see
  /// EventQueue::Bound) and stop() was not called.
  std::uint64_t drain(SimTime limit, EventQueue::Bound bound);
  /// drain(), then advance the clock to t_end unless stopped.
  std::uint64_t run_to(SimTime t_end, EventQueue::Bound bound);
  void trace_event_executed();
  void trace_flush();

  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t processed_ = 0;
  bool stopping_ = false;
  obs::Tracer* tracer_ = nullptr;
  SimTime span_start_ = 0.0;
  bool span_open_ = false;
};

}  // namespace paradyn::des
