// A deterministic priority queue of timed events, behind the reference
// walk's sim::Engine (support/engine.hpp).
//
// Events that share a timestamp are delivered in insertion order (FIFO
// tie-break via a monotonically increasing sequence number), which makes
// whole-simulation runs reproducible bit-for-bit under a fixed seed.
//
// The heap stores callbacks by value (no per-event heap allocation
// beyond what the std::function itself may need), and cancellation is
// lazy: a one-bit-per-token liveness map marks cancelled entries, which
// are discarded when they surface at the heap head.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace coeff::sim {

/// An event is an opaque callback fired at a simulated instant.
using EventFn = std::function<void()>;

class EventQueue {
 public:
  /// Enqueue `fn` to fire at absolute time `at`. Returns a token that can
  /// be used to cancel the event before it fires.
  std::uint64_t push(Time at, EventFn fn);

  /// Cancel a pending event. Cancelling an already-fired, already-
  /// cancelled, or unknown token is a no-op and returns false.
  bool cancel(std::uint64_t token);

  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Timestamp of the earliest pending event. Precondition: !empty().
  [[nodiscard]] Time next_time() const;

  /// Remove and return the earliest pending event. Precondition: !empty().
  std::pair<Time, EventFn> pop();

 private:
  struct Entry {
    Time at;
    std::uint64_t seq;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  // Discard cancelled entries that have surfaced at the heap head.
  void drop_cancelled_head() const;

  // Tokens are issued sequentially, so liveness is a bit per token ever
  // pushed: true while the entry is pending, false once fired or
  // cancelled. An in-heap entry whose bit is clear was cancelled.
  mutable std::vector<Entry> heap_;
  std::vector<bool> alive_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace coeff::sim
