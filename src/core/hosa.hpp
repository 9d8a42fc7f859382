// HOSA-style baseline ([7]: holistic dual-channel scheduling with
// best-effort redundancy).
//
// Sits between FSPEC and CoEfficient: like CoEfficient it uses the
// optimized (cycle-multiplexed) static schedule table, so no exclusive
// slots are wasted; like FSPEC it relies on plain dual-channel
// mirroring for fault tolerance — every frame, static and dynamic, is
// duplicated on channel B, "consum[ing] substantial bandwidth to
// support fault tolerance" (§V-B), and idle slacks stay idle.
#pragma once

#include <optional>
#include <unordered_map>

#include "core/scheduler_base.hpp"

namespace coeff::core {

class HosaScheduler : public SchedulerBase {
 public:
  HosaScheduler(const flexray::ClusterConfig& cfg, net::MessageSet statics,
                net::MessageSet dynamics, sim::Time batch_window);

  // --- TransmissionPolicy ----------------------------------------------
  std::optional<flexray::TxRequest> static_slot(flexray::ChannelId channel,
                                                units::CycleIndex cycle,
                                                units::SlotId slot) override;
  /// Batched decision path for the Cluster's walk: one template-row scan
  /// staging the A/B mirror pair per ready occupant. Stages exactly what
  /// the default per-slot loop would (see the equivalence note in the
  /// implementation).
  void decide_static_chunk(units::CycleIndex cycle, std::int64_t slot_begin,
                           std::int64_t slot_end,
                           StaticChunkSink& sink) override;
  std::optional<flexray::TxRequest> dynamic_slot(
      flexray::ChannelId channel, units::CycleIndex cycle,
      units::SlotId slot_counter, units::MinislotId minislot,
      std::int64_t minislots_remaining) override;
  [[nodiscard]] std::int64_t dynamic_next_frame(
      flexray::ChannelId channel, std::int64_t min_frame) const override;
  void on_tx_complete(const flexray::TxOutcome& outcome) override;

 protected:
  void on_cycle_start_hook(units::CycleIndex cycle, sim::Time at) override;
  void on_static_release(Instance& inst, const net::Message& m) override;
  void on_dynamic_release(Instance& inst, const net::Message& m,
                          const flexray::PendingMessage& pending) override;
  /// Drop mirror-staging entries whose instances the crash erased.
  void on_node_down(units::NodeId node, units::CycleIndex cycle,
                    sim::Time at) override;

 private:
  /// Channel-B mirror staging for the dynamic segment.
  std::unordered_map<units::SlotId, flexray::TxRequest> dynamic_mirror_;
};

}  // namespace coeff::core
