// The cluster: drives the FlexRay cycle structure over both channels.
//
// The Cluster owns the two channels and the cycle walk; scheduling
// decisions are delegated to the installed TransmissionPolicy and fault
// verdicts to the CorruptionFn. Slot-level timing is computed
// arithmetically (CycleTiming). The walk is phased (DESIGN.md §12):
// static slots are decided in event-free chunks, their verdicts drawn
// per chunk and their outcomes committed in slot order, so policy- or
// workload-scheduled engine events (e.g. aperiodic arrivals) land
// between the same slots as in a slot-by-slot walk. That slot-by-slot
// walk lives in tests/support/reference_cluster.* as the executable
// reference the differential suite compares against.
#pragma once

#include <array>
#include <cstdint>

#include "flexray/bus.hpp"
#include "flexray/fault_domain.hpp"
#include "flexray/policy.hpp"
#include "flexray/timing.hpp"
#include "sim/arena.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace coeff::flexray {

class Cluster {
 public:
  /// `trace` may be nullptr to disable tracing.
  Cluster(sim::Engine& engine, const ClusterConfig& cfg,
          TransmissionPolicy& policy, CorruptionFn corruption,
          sim::Trace* trace = nullptr);

  /// Install a structural fault provider (node/channel topology faults).
  /// Must outlive the cluster; nullptr detaches. Transitions are drained
  /// at every cycle boundary, traced (kNodeCrash/kNodeRestart/
  /// kChannelDown/kChannelUp) and forwarded to the policy.
  void set_fault_provider(StructuralFaultProvider* provider) {
    faults_ = provider;
  }
  [[nodiscard]] const StructuralFaultProvider* fault_provider() const {
    return faults_;
  }

  /// Install the batched-verdict hook used by the static segment. Must
  /// draw from the same underlying model as the per-frame CorruptionFn
  /// (fault::FaultModel::as_batch_fn does), or the two verdict streams
  /// desynchronise. Optional: without it the walk draws per frame
  /// through the CorruptionFn.
  void set_batch_corruption(BatchCorruptionFn fn) {
    batch_corruption_ = std::move(fn);
  }

  /// Execute the next `n` communication cycles.
  void run_cycles(std::int64_t n);

  /// Execute whole cycles until the cycle containing `t` has completed.
  void run_until(sim::Time t);

  [[nodiscard]] std::int64_t cycles_run() const { return next_cycle_.value(); }
  [[nodiscard]] const Channel& channel(ChannelId id) const {
    return channels_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const CycleTiming& timing() const { return timing_; }
  [[nodiscard]] const ClusterConfig& config() const {
    return timing_.config();
  }
  [[nodiscard]] sim::Engine& engine() { return engine_; }

  /// Total wire capacity of the dynamic segment so far (minislots
  /// elapsed across both channels), for utilization metrics.
  [[nodiscard]] std::int64_t dynamic_minislots_elapsed() const {
    return next_cycle_.value() * config().g_number_of_minislots * kNumChannels;
  }
  /// Total static slots elapsed across both channels.
  [[nodiscard]] std::int64_t static_slots_elapsed() const {
    return next_cycle_.value() * config().g_number_of_static_slots *
           kNumChannels;
  }

 private:
  void execute_cycle(units::CycleIndex cycle);
  void apply_topology_events(units::CycleIndex cycle, sim::Time at);
  /// Phased static walk: decide → batched verdicts → commit, chunked at
  /// pending engine events so arrivals land between the same slots as
  /// in the slot-by-slot reference walk.
  void execute_static_segment(units::CycleIndex cycle);
  /// Dynamic walk with run_until elision and idle-minislot skipping.
  void execute_dynamic_segment(units::CycleIndex cycle, ChannelId channel);

  /// Forced-corruption verdict for a frame that did reach the wire:
  /// babbling-idiot collision in its slot or an out-of-sync sender.
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
  BatchCorruptionFn batch_corruption_;
  sim::Arena arena_;  ///< per-cycle transients (decisions, verdicts)
};

}  // namespace coeff::flexray
