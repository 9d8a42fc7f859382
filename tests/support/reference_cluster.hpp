// The slot-by-slot reference walk: the executable specification the
// production flexray::Cluster is tested against (DESIGN.md §12).
//
// Per slot it runs the engine to the slot boundary, asks the policy for
// each channel's decision through static_slot / dynamic_slot, draws that
// frame's verdict through the CorruptionFn, and commits the outcome
// before looking at the next slot. It is deliberately naive: it never
// calls decide_static_chunk or dynamic_next_frame, ignores the batch
// verdict hook, and skips no minislot. Every optimisation lands in
// flexray::Cluster; this walk stays frozen, and the differential tests
// require byte-identical traces and RunStats from both, through
// core::run_experiment_with<ReferenceCluster>.
#pragma once

#include <array>
#include <cstdint>

#include "flexray/bus.hpp"
#include "flexray/fault_domain.hpp"
#include "flexray/policy.hpp"
#include "flexray/timing.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace coeff::flexray {

class ReferenceCluster {
 public:
  /// Same contract as flexray::Cluster's constructor.
  ReferenceCluster(sim::Engine& engine, const ClusterConfig& cfg,
                   TransmissionPolicy& policy, CorruptionFn corruption,
                   sim::Trace* trace = nullptr);

  void set_fault_provider(StructuralFaultProvider* provider) {
    faults_ = provider;
  }
  /// Accepted for interface parity and ignored: the reference draws
  /// every verdict per frame through the CorruptionFn.
  void set_batch_corruption(const BatchCorruptionFn& /*fn*/) {}

  void run_cycles(std::int64_t n);
  void run_until(sim::Time t);

  [[nodiscard]] std::int64_t cycles_run() const { return next_cycle_.value(); }
  [[nodiscard]] const Channel& channel(ChannelId id) const {
    return channels_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const ClusterConfig& config() const {
    return timing_.config();
  }

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

  sim::Engine& engine_;
  CycleTiming timing_;
  TransmissionPolicy& policy_;
  std::array<Channel, kNumChannels> channels_;
  sim::Trace* trace_;
  StructuralFaultProvider* faults_ = nullptr;
  units::CycleIndex next_cycle_{0};
};

}  // namespace coeff::flexray
