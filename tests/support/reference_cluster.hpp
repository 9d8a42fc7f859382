// The slot-by-slot reference walk: the executable specification the
// production flexray::Cluster is tested against (DESIGN.md §12).
//
// Per slot it runs the engine to the slot boundary, asks the policy for
// each channel's decision through static_slot / dynamic_slot, draws that
// frame's verdict through the CorruptionFn, and commits the outcome
// before looking at the next slot. It is deliberately naive: it never
// calls decide_static_chunk or dynamic_next_frame and skips no
// minislot. Every optimisation lands in flexray::Cluster; this walk
// stays frozen, and the differential tests require byte-identical
// traces and RunStats from both, through
// core::run_experiment_with<ReferenceCluster>.
//
// Arrivals, too, take the old path: each is one sim::Engine event
// (support/engine.hpp), scheduled in the order given, where
// flexray::Cluster pulls them from a stably sorted ArrivalCursor. So
// the differential tests also check the cursor's order and its
// delivery points against the engine's (time, sequence) heap.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "flexray/bus.hpp"
#include "flexray/fault_domain.hpp"
#include "flexray/policy.hpp"
#include "sim/trace.hpp"
#include "support/engine.hpp"

namespace coeff::flexray {

class ReferenceCluster {
 public:
  /// Same contract as flexray::Cluster's constructor.
  ReferenceCluster(const ClusterConfig& cfg, TransmissionPolicy& policy,
                   CorruptionFn corruption, sim::Trace* trace = nullptr);

  /// Schedules each arrival as one engine event, in the order given.
  /// Call once, before the walk starts.
  void set_arrivals(const std::vector<Arrival>& arrivals);

  void set_fault_provider(StructuralFaultProvider* provider) {
    faults_ = provider;
  }

  void run_cycles(std::int64_t n);
  void run_until(sim::Time t);

  [[nodiscard]] std::int64_t cycles_run() const { return next_cycle_.value(); }
  /// The engine's clock, which each cycle runs to its end.
  [[nodiscard]] sim::Time now() const { return engine_.now(); }
  [[nodiscard]] const Channel& channel(ChannelId id) const {
    return channels_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }

  /// static_slot calls made by every ReferenceCluster in this process so
  /// far. A differential test reads it before and after a run to prove
  /// the reference walk really ran.
  [[nodiscard]] static std::int64_t static_slot_calls();

 private:
  void execute_cycle(units::CycleIndex cycle);
  void apply_topology_events(units::CycleIndex cycle, sim::Time at);
  void execute_static_segment(units::CycleIndex cycle);
  void execute_dynamic_segment(units::CycleIndex cycle, ChannelId channel);
  [[nodiscard]] bool structural_corruption(const TxRequest& req,
                                           units::SlotId slot,
                                           ChannelId channel,
                                           sim::Time at) const;

  ClusterConfig cfg_;
  TransmissionPolicy& policy_;
  std::array<Channel, kNumChannels> channels_;
  sim::Trace* trace_;
  StructuralFaultProvider* faults_ = nullptr;
  units::CycleIndex next_cycle_{0};
  sim::Engine engine_;
};

}  // namespace coeff::flexray
