// Structural (topology-level) fault seam.
//
// PR 2's fault layer models *bit* faults: every injected fault is a
// corrupted frame. This header lifts the fault domain one level up, to
// the structures FlexRay's redundancy exists to survive — an ECU
// crashing and later restarting, a whole channel going dark, a babbling
// node jamming a slot, a node drifting out of clock sync.
//
// Layering: coeff_fault links against coeff_flexray, never the other
// way around, so the *interface* the Cluster polls lives here while the
// seeded implementation (fault::NodeFaultModel) lives in src/fault/.
// The Cluster drains topology transitions at each cycle boundary (state
// changes are cycle-aligned, like plan swaps) and consults the current
// state when clocking slots.
#pragma once

#include <vector>

#include "flexray/config.hpp"
#include "sim/time.hpp"
#include "units/units.hpp"

namespace coeff::flexray {

enum class TopologyEventKind : std::uint8_t {
  kNodeCrash,
  kNodeRestart,
  kChannelDown,
  kChannelUp,
};

[[nodiscard]] constexpr const char* to_string(TopologyEventKind k) {
  switch (k) {
    case TopologyEventKind::kNodeCrash:
      return "node_crash";
    case TopologyEventKind::kNodeRestart:
      return "node_restart";
    case TopologyEventKind::kChannelDown:
      return "channel_down";
    case TopologyEventKind::kChannelUp:
      return "channel_up";
  }
  return "unknown";
}

/// One topology state transition, applied at a cycle boundary.
struct TopologyEvent {
  TopologyEventKind kind = TopologyEventKind::kNodeCrash;
  /// Valid for kNodeCrash/kNodeRestart.
  units::NodeId node{-1};
  /// Valid for kChannelDown/kChannelUp.
  ChannelId channel = ChannelId::kA;
  /// When the underlying fault fired (<= the cycle boundary at which the
  /// event is applied).
  sim::Time at;
};

/// What the Cluster polls. Implementations must be deterministic given
/// their seed: the same poll()/query sequence yields the same answers.
/// Between two polls, slot_jammed() and node_out_of_sync() must give the
/// same answer for the same arguments, however often and in whatever
/// order they are asked: the Cluster asks them when it commits a frame,
/// which may come after later slots were already decided.
class StructuralFaultProvider {
 public:
  virtual ~StructuralFaultProvider() = default;

  /// Drain every transition that fires at or before `at`, ordered by
  /// fire time (ties: channels before nodes, ascending index). The
  /// provider's node_down()/channel_down() state advances accordingly.
  /// Called once per cycle boundary by the Cluster.
  virtual std::vector<TopologyEvent> poll(sim::Time at) = 0;

  /// Current state, as of the last poll().
  [[nodiscard]] virtual bool node_down(units::NodeId node) const = 0;
  [[nodiscard]] virtual bool channel_down(ChannelId channel) const = 0;

  /// A babbling idiot owns the wire in `slot` at `at`: any frame sent
  /// there collides and arrives corrupted.
  [[nodiscard]] virtual bool slot_jammed(units::SlotId slot, ChannelId channel,
                                         sim::Time at) const = 0;

  /// The node's local clock has drifted beyond the sync bound at `at`;
  /// its transmissions miss the action point and are unreceivable.
  [[nodiscard]] virtual bool node_out_of_sync(units::NodeId node,
                                              sim::Time at) const = 0;
};

}  // namespace coeff::flexray
