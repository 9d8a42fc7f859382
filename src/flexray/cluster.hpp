// The cluster: drives the FlexRay cycle structure over both channels.
//
// The Cluster owns the two channels and the cycle walk; scheduling
// decisions are delegated to the installed TransmissionPolicy and fault
// verdicts to the CorruptionFn. Cycle, slot and minislot starts come
// from the ClusterConfig it holds. The walk is phased (DESIGN.md §12):
// static slots are decided in arrival-free chunks, then their outcomes
// are committed in slot order, each frame's verdict drawn at its
// commit, so dynamic arrivals land between the same slots as in a
// slot-by-slot walk. That slot-by-slot walk lives in
// tests/support/reference_cluster.* as the executable reference the
// differential suite compares against.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "flexray/bus.hpp"
#include "flexray/fault_domain.hpp"
#include "flexray/policy.hpp"
#include "sim/trace.hpp"

namespace coeff::flexray {

class Cluster {
 public:
  /// `trace` may be nullptr to disable tracing. Throws
  /// std::invalid_argument when `cfg` is invalid (ClusterConfig::validate).
  Cluster(const ClusterConfig& cfg, TransmissionPolicy& policy,
          CorruptionFn corruption, sim::Trace* trace = nullptr);

  /// Install the dynamic arrivals the walk hands to the policy
  /// (TransmissionPolicy::on_arrival), in any order: they are stably
  /// sorted by time, so equal times keep the order given. Replaces any
  /// not yet delivered.
  void set_arrivals(std::vector<Arrival> arrivals) {
    arrivals_ = ArrivalCursor(std::move(arrivals));
  }

  /// Install a structural fault provider (node/channel topology faults).
  /// Must outlive the cluster; nullptr detaches. Transitions are drained
  /// at every cycle boundary, traced (kNodeCrash/kNodeRestart/
  /// kChannelDown/kChannelUp), applied to the channels' availability and
  /// forwarded to the policy, which keeps the node state.
  void set_fault_provider(StructuralFaultProvider* provider) {
    faults_ = provider;
  }

  /// Execute the next `n` communication cycles.
  void run_cycles(std::int64_t n);

  /// Execute whole cycles until the cycle containing `t` has completed.
  void run_until(sim::Time t);

  [[nodiscard]] std::int64_t cycles_run() const { return next_cycle_.value(); }
  /// The walk's clock: the end of the last executed cycle.
  [[nodiscard]] sim::Time now() const { return cfg_.cycle_start(next_cycle_); }
  [[nodiscard]] const Channel& channel(ChannelId id) const {
    return channels_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }

 private:
  void execute_cycle(units::CycleIndex cycle);
  void apply_topology_events(units::CycleIndex cycle, sim::Time at);
  /// Phased static walk: decide, then commit with per-frame verdicts,
  /// chunked at pending arrivals so they land between the same slots as
  /// in the slot-by-slot reference walk.
  void execute_static_segment(units::CycleIndex cycle);
  /// Dynamic walk with idle-minislot skipping.
  void execute_dynamic_segment(units::CycleIndex cycle, ChannelId channel);

  /// Forced-corruption verdict for a frame that did reach the wire:
  /// babbling-idiot collision in its slot or an out-of-sync sender.
  [[nodiscard]] bool structural_corruption(const TxRequest& req,
                                           units::SlotId slot,
                                           ChannelId channel,
                                           sim::Time at) const;

  /// One honoured static-slot request, staged between decision and
  /// commit.
  struct Decision {
    TxRequest req;
    sim::Time slot_start;
    std::int64_t slot = 0;
    std::uint8_t channel = 0;
    bool lost = false;  ///< channel dark: lose() instead of transmit()
  };

  ClusterConfig cfg_;
  TransmissionPolicy& policy_;
  std::array<Channel, kNumChannels> channels_;
  sim::Trace* trace_;
  StructuralFaultProvider* faults_ = nullptr;
  units::CycleIndex next_cycle_{0};
  ArrivalCursor arrivals_;
  /// One chunk's decisions: both channels of every static slot at most.
  std::vector<Decision> decisions_;
};

}  // namespace coeff::flexray
