// The seam between the protocol engine and a scheduler.
//
// The Cluster walks the cycle/slot/minislot structure and asks the
// installed TransmissionPolicy what to put in each slot; the policy
// learns what happened through the on_* callbacks. Both CoEfficient and
// the FSPEC baseline are implementations of this interface (src/core).
// The walk's only events are dynamic arrivals; it pulls them from an
// ArrivalCursor and hands each one to the policy (on_arrival).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "flexray/bus.hpp"
#include "flexray/fault_domain.hpp"
#include "units/units.hpp"

namespace coeff::flexray {

/// Sentinel for dynamic_next_frame: the rest of the dynamic segment is
/// certainly idle on the queried channel.
inline constexpr std::int64_t kNoDynamicFrame =
    std::numeric_limits<std::int64_t>::max();

class TransmissionPolicy {
 public:
  virtual ~TransmissionPolicy() = default;

  /// Receives the honoured static-slot requests of decide_static_chunk,
  /// in slot-major order, channel A before B.
  class StaticChunkSink {
   public:
    virtual ~StaticChunkSink() = default;
    virtual void stage(units::SlotId slot, ChannelId channel,
                       const TxRequest& request) = 0;
  };

  /// Decide every static slot in [slot_begin, slot_end] (both channels)
  /// and stage the honoured requests into `sink`. The Cluster calls this
  /// once per event-free run of slots and commits the outcomes only
  /// afterwards, so every policy must obey one rule: its decisions never
  /// read state written by same-cycle on_tx_complete calls (DESIGN.md
  /// §12). An override may batch or memoize its internal lookups, but
  /// MUST stage exactly the requests the equivalent per-slot static_slot
  /// calls would, in the same order, with the same side effects.
  /// Default: that per-slot loop itself.
  virtual void decide_static_chunk(units::CycleIndex cycle,
                                   std::int64_t slot_begin,
                                   std::int64_t slot_end,
                                   StaticChunkSink& sink) {
    for (std::int64_t s = slot_begin; s <= slot_end; ++s) {
      for (const ChannelId channel : {ChannelId::kA, ChannelId::kB}) {
        if (auto req = static_slot(channel, cycle, units::SlotId{s})) {
          sink.stage(units::SlotId{s}, channel, *req);
        }
      }
    }
  }

  /// Smallest dynamic frame id >= `min_frame` for which dynamic_slot
  /// might return a transmission on `channel` this cycle, assuming no
  /// further arrivals; kNoDynamicFrame when the rest of the segment is
  /// certainly idle. The Cluster uses this to skip idle minislots
  /// in one jump; every skipped call must be side-effect-free and would
  /// have returned nullopt. The conservative default (min_frame itself)
  /// disables skipping.
  [[nodiscard]] virtual std::int64_t dynamic_next_frame(
      ChannelId channel, std::int64_t min_frame) const {
    (void)channel;
    return min_frame;
  }

  /// A topology state change (node crash/restart, channel down/up) was
  /// applied at the boundary of `cycle`. Delivered after on_cycle_start
  /// for that cycle. Default: ignore (policies predating the structural
  /// fault domain keep compiling and simply ride out the fault).
  virtual void on_topology_event(const TopologyEvent& event,
                                 units::CycleIndex cycle, sim::Time at) {
    (void)event;
    (void)cycle;
    (void)at;
  }

  /// Called once at the start of every communication cycle, before any
  /// slot of that cycle is processed.
  virtual void on_cycle_start(units::CycleIndex cycle, sim::Time at) = 0;

  /// Content for static slot `slot` (1-based) of `cycle` on `channel`.
  /// Return std::nullopt to leave the slot idle on that channel. The
  /// returned frame_id must equal `slot` and the payload must fit the
  /// slot; the cluster enforces both.
  virtual std::optional<TxRequest> static_slot(ChannelId channel,
                                               units::CycleIndex cycle,
                                               units::SlotId slot) = 0;

  /// Content for the dynamic slot with counter value `slot_counter` on
  /// `channel`. `minislot` is the 0-based minislot the slot starts at and
  /// `minislots_remaining` how many minislots are left in the segment
  /// (including this one). Return std::nullopt to let one minislot pass.
  /// A transmission is honoured only if it fits the remaining minislots
  /// and starts no later than pLatestTx; otherwise the cluster treats the
  /// slot as declined and reports on_dynamic_declined.
  virtual std::optional<TxRequest> dynamic_slot(
      ChannelId channel, units::CycleIndex cycle, units::SlotId slot_counter,
      units::MinislotId minislot, std::int64_t minislots_remaining) = 0;

  /// Result of every honoured transmission (static and dynamic).
  virtual void on_tx_complete(const TxOutcome& outcome) = 0;

  /// A dynamic TxRequest could not be honoured (too large for the
  /// remaining minislots or past pLatestTx). The request stays with the
  /// policy, which may retry in a later cycle.
  virtual void on_dynamic_declined(ChannelId channel, units::CycleIndex cycle,
                                   const TxRequest& request) = 0;

  /// Called at the end of every communication cycle.
  virtual void on_cycle_end(units::CycleIndex cycle, sim::Time at) = 0;

  /// Message `message_id` was produced at `at`. The walk delivers each
  /// arrival at the first sequence point at or after `at`: before a
  /// cycle, before a static slot's decision, before a minislot, or at
  /// cycle end.
  virtual void on_arrival(int message_id, sim::Time at) = 0;
};

/// One dynamic arrival: message `message_id` is produced at `at`.
struct Arrival {
  sim::Time at;
  int message_id = 0;
};

/// The walk's arrivals, sorted by time and pulled front to back. The
/// sort is stable, so arrivals that share a time keep the order they
/// were given in.
class ArrivalCursor {
 public:
  ArrivalCursor() = default;
  explicit ArrivalCursor(std::vector<Arrival> arrivals)
      : arrivals_(std::move(arrivals)) {
    std::stable_sort(arrivals_.begin(), arrivals_.end(),
                     [](const Arrival& a, const Arrival& b) {
                       return a.at < b.at;
                     });
  }

  /// Time of the next undelivered arrival, or Time::max() when none is
  /// left.
  [[nodiscard]] sim::Time next_time() const {
    return next_ < arrivals_.size() ? arrivals_[next_].at : sim::Time::max();
  }

  /// Hand every undelivered arrival at or before `t` to `policy`, in
  /// order.
  void deliver_until(sim::Time t, TransmissionPolicy& policy) {
    while (next_ < arrivals_.size() && arrivals_[next_].at <= t) {
      const Arrival& a = arrivals_[next_++];
      policy.on_arrival(a.message_id, a.at);
    }
  }

 private:
  std::vector<Arrival> arrivals_;
  std::size_t next_ = 0;
};

}  // namespace coeff::flexray
