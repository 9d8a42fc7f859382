// Discrete-event simulation engine.
//
// The engine owns the simulated clock and the event queue. Components
// schedule callbacks at absolute or relative times; `run_until` drains
// events in timestamp order, advancing the clock to each event as it
// fires. Within one run the clock never moves backwards.
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace coeff::sim {

class Engine {
 public:
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` at absolute simulated time `at` (must be >= now()).
  std::uint64_t schedule_at(Time at, EventFn fn);

  /// Schedule `fn` after a relative delay (must be >= 0).
  std::uint64_t schedule_after(Time delay, EventFn fn);

  bool cancel(std::uint64_t token) { return queue_.cancel(token); }

  /// Run events with timestamp <= `deadline`. Returns the number of
  /// events fired. On return the clock reads `deadline` if the queue
  /// drained (or only later events remain), else the last event time.
  std::size_t run_until(Time deadline);

  /// Run until the event queue is empty. Returns the events fired.
  std::size_t run_to_completion();

  /// Fire at most one pending event. Returns false if the queue is empty.
  bool step();

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::size_t events_fired() const { return fired_; }

  /// Timestamp of the earliest pending event, or `fallback` when the
  /// queue is empty. Lets callers skip `run_until` calls that would
  /// only advance the clock (the Cluster's cycle walk elides per-slot
  /// run_until when no event fires inside the slot).
  [[nodiscard]] Time next_event_time(Time fallback = Time::max()) const {
    return queue_.empty() ? fallback : queue_.next_time();
  }

 private:
  EventQueue queue_;
  Time now_ = Time::zero();
  std::size_t fired_ = 0;
};

}  // namespace coeff::sim
