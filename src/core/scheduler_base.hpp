// Shared machinery for the three transmission policies (CoEfficient,
// FSPEC, HOSA): instance release, CHI plumbing, the FTDMA dispatch of
// the dynamic segment, deadline bookkeeping, and the outcome tally. The
// derived classes implement only what differs — how static slots are
// filled and how redundant copies are produced (DESIGN.md §12).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/cycle_template.hpp"
#include "core/instance.hpp"
#include "core/metrics.hpp"
#include "flexray/chi.hpp"
#include "flexray/policy.hpp"
#include "net/message.hpp"
#include "sched/schedule_table.hpp"
#include "sim/trace.hpp"

namespace coeff::core {

class SchedulerBase : public flexray::TransmissionPolicy {
 public:
  /// `batch_window`: static instances are released for all release times
  /// in [0, batch_window); dynamic arrivals are injected externally
  /// (on_arrival) and should respect the same window. Throws
  /// std::invalid_argument when a message id is both static and dynamic,
  /// or when a message names a node outside [0, cfg.num_nodes).
  /// `table` lets a subclass install a table it built itself (FSPEC's
  /// exclusive-slot table); by default the table is built from
  /// `statics` with cycle multiplexing.
  SchedulerBase(const flexray::ClusterConfig& cfg, net::MessageSet statics,
                net::MessageSet dynamics, sim::Time batch_window,
                std::optional<sched::StaticScheduleTable> table = std::nullopt);
  ~SchedulerBase() override = default;

  /// When false, dynamic queue entries survive their deadline and are
  /// still transmitted (running-time experiments drain the full batch);
  /// misses are recorded either way. Default: true (drop expired).
  void set_drop_expired_dynamics(bool drop) { drop_expired_dynamics_ = drop; }

  /// True while the scheme still owes wire transmissions for the batch.
  [[nodiscard]] bool work_remaining() const { return owed_copies_ > 0; }

  /// Settle every instance still live at end of run (records misses for
  /// undelivered ones whose deadline passed or will pass unserved).
  void finalize(sim::Time now);

  /// End time of the last wire transmission (the batch makespan).
  [[nodiscard]] sim::Time last_activity() const { return last_activity_; }

  [[nodiscard]] const RunStats& stats() const { return stats_; }
  [[nodiscard]] RunStats& stats() { return stats_; }

  /// Optional structured-trace sink for scheduler-level events (plan
  /// swaps, load shedding). May be nullptr; the trace must outlive the
  /// scheduler. Typically the same Trace the Cluster records into.
  void set_trace(sim::Trace* trace) { trace_ = trace; }

  // --- TransmissionPolicy (shared parts) -------------------------------
  // Every SchedulerBase scheme keeps the decide_static_chunk rule: slot
  // decisions read only decide-side state (CHI buffers, queues, plans)
  // and never state written by same-cycle on_tx_complete calls, which
  // do pure outcome accounting read at cycle boundaries.
  void on_cycle_start(units::CycleIndex cycle, sim::Time at) override;
  void on_cycle_end(units::CycleIndex cycle, sim::Time at) override;
  /// One dynamic arrival: creates the instance and enqueues it in the
  /// producing node's CHI dynamic queue.
  void on_arrival(int message_id, sim::Time at) override;
  void on_dynamic_declined(flexray::ChannelId channel, units::CycleIndex cycle,
                           const flexray::TxRequest& request) override;
  /// The outcome tally: records a wire transmission against its
  /// instance (copy counts, delivery or vote, latency, owed work) and
  /// counts the retransmission copies sent. Overrides call it first.
  void on_tx_complete(const flexray::TxOutcome& outcome) override;
  /// Shared topology-state bookkeeping for all schemes: a crash powers
  /// the node's CHI off, settles its undelivered instances as
  /// source-lost (a dead producer is a node failure, not a scheduling
  /// miss) and drops their staged mirrors; a restart brings the node
  /// back with the empty buffers the crash left; channel events track
  /// availability. Subclasses refine recovery through the
  /// on_node_down/on_node_up hooks.
  void on_topology_event(const flexray::TopologyEvent& event,
                         units::CycleIndex cycle, sim::Time at) override;

  // --- Topology state ---------------------------------------------------
  [[nodiscard]] bool node_alive(int node) const;
  [[nodiscard]] bool channel_available(flexray::ChannelId channel) const {
    return !channel_down_[static_cast<std::size_t>(channel)];
  }
  [[nodiscard]] int channels_available() const;

 protected:
  /// Scheme-level recovery hooks, called after the base bookkeeping for
  /// the corresponding topology event. Defaults: no reaction.
  virtual void on_node_down(units::NodeId /*node*/, units::CycleIndex /*cycle*/,
                            sim::Time /*at*/) {}
  virtual void on_node_up(units::NodeId /*node*/, units::CycleIndex /*cycle*/,
                          sim::Time /*at*/) {}
  /// Subclass hook invoked from on_cycle_start after releases, sweeps and
  /// mirror forfeits.
  virtual void on_cycle_start_hook(units::CycleIndex /*cycle*/,
                                   sim::Time /*at*/) {}

  /// Called for every newly released static instance. The subclass must
  /// register the copies it owes (add_copies) and stage the primary
  /// transmission (e.g. write the CHI static buffer).
  virtual void on_static_release(Instance& inst, const net::Message& m) = 0;

  /// Called for every dynamic arrival. The subclass must register owed
  /// copies and enqueue `pending` where its dispatch logic will find it.
  virtual void on_dynamic_release(Instance& inst, const net::Message& m,
                                  const flexray::PendingMessage& pending) = 0;

  /// Reduce an instance's owed copies (cancelled retransmission or
  /// expired queue entry) keeping the global owed counter consistent.
  void cancel_copies(Instance& inst, int copies);

  /// Add owed copies to an instance (planned redundancy).
  void add_copies(Instance& inst, int copies);

  [[nodiscard]] SegmentMetrics& segment(net::MessageKind kind) {
    return kind == net::MessageKind::kStatic ? stats_.statics
                                             : stats_.dynamics;
  }

  /// The node that owns a dynamic frame id, or nullptr. Flat-array
  /// lookup (built once: the dynamic set never changes at runtime).
  [[nodiscard]] const net::Message* dynamic_message_for_frame(
      int frame_id) const {
    const auto idx = static_cast<std::size_t>(frame_id);
    return frame_id >= 0 && idx < dynamic_frame_lut_.size()
               ? dynamic_frame_lut_[idx]
               : nullptr;
  }

  /// The FTDMA rule of the dynamic segment (§II-B), the same for every
  /// scheme: dynamic slot `slot_counter` carries the head of its owning
  /// node's queue for that frame id, if it was released by the
  /// minislot's start, fits in `minislots_remaining` minislots and
  /// starts by pLatestTx. The entry is popped and its request returned;
  /// nullopt lets one minislot pass.
  [[nodiscard]] std::optional<flexray::TxRequest> take_dynamic(
      units::CycleIndex cycle, units::SlotId slot_counter,
      units::MinislotId minislot, std::int64_t minislots_remaining);

  /// Smallest frame id >= `min_frame` queued in any node's CHI dynamic
  /// queue, or flexray::kNoDynamicFrame: the complete set of slots
  /// take_dynamic can fill. Shared building block for the schemes'
  /// dynamic_next_frame overrides (channel-A semantics).
  [[nodiscard]] std::int64_t queued_dynamic_next_frame(
      std::int64_t min_frame) const;

  // --- Channel-B mirror staging (the mirroring schemes, FSPEC and HOSA)
  /// Channel A sent `request` in dynamic slot `slot_counter`; channel B
  /// replays it in the same slot. Channel A stages in ascending
  /// slot-counter order within a cycle. A stage left at the next cycle
  /// start forfeits its copy.
  void stage_mirror(units::SlotId slot_counter,
                    const flexray::TxRequest& request);
  /// The request staged for `slot_counter`, removed; nullopt if none.
  [[nodiscard]] std::optional<flexray::TxRequest> take_mirror(
      units::SlotId slot_counter);
  /// Smallest staged slot counter >= `min_frame`, or
  /// flexray::kNoDynamicFrame: the complete set of slots channel B can
  /// transmit in.
  [[nodiscard]] std::int64_t mirror_next_frame(std::int64_t min_frame) const;

  /// Position of static message `m` in statics_ (the template's message
  /// pointers are borrowed from statics_). Statics take positions
  /// [0, statics_.size()) in the instance store, dynamics the rest.
  [[nodiscard]] std::size_t static_position(const net::Message& m) const {
    return static_cast<std::size_t>(&m - statics_.messages().data());
  }
  /// table_.assignment_of(m.id) for static message `m`, from an array.
  [[nodiscard]] const sched::SlotAssignment* placement_of(
      const net::Message& m) const {
    return placements_[static_position(m)];
  }

  flexray::ClusterConfig cfg_;
  net::MessageSet statics_;
  net::MessageSet dynamics_;
  sched::StaticScheduleTable table_;
  sim::Time batch_window_;
  sim::Time cycle_duration_;

  InstanceStore instances_;
  std::vector<flexray::Node> nodes_;
  /// Built once from table_ and statics_, which never change.
  CycleTemplate tpl_;
  std::vector<const net::Message*> dynamic_frame_lut_;  ///< by frame id
  std::int64_t owed_copies_ = 0;
  sim::Time last_activity_;
  bool drop_expired_dynamics_ = true;
  RunStats stats_;
  sim::Trace* trace_ = nullptr;
  std::vector<char> node_down_;  ///< indexed by node, 1 = crashed
  std::array<bool, flexray::kNumChannels> channel_down_{};

 private:
  /// Earliest not-yet-released static instance, maintained by
  /// release_statics_until so cycles with nothing due skip the full
  /// static scan. Starts at zero (= before any cap) so the first call
  /// always scans; exact thereafter because the static set and the
  /// per-message indices only change inside that function.
  sim::Time next_static_release_;
  /// (message id, position in dynamics_) of every dynamic message,
  /// sorted by id.
  std::vector<std::pair<int, std::size_t>> dynamic_positions_;
  /// Position of dynamic message `message_id` in dynamics_, or nullopt.
  [[nodiscard]] std::optional<std::size_t> dynamic_position(
      int message_id) const;
  std::vector<const sched::SlotAssignment*> placements_;  ///< by position
  std::vector<std::int64_t> next_static_index_;   ///< by static position
  std::vector<std::int64_t> next_dynamic_index_;  ///< by dynamic position
  /// Staged channel-B mirrors, ascending by slot counter: channel A
  /// stages in slot-counter order, and the vector empties every cycle.
  std::vector<std::pair<units::SlotId, flexray::TxRequest>> mirrors_;

  void release_statics_until(sim::Time until);
  void sweep(sim::Time now);
  /// Cycle start: cancel the copy of every mirror channel B never
  /// carried, and empty the staging.
  void forfeit_mirrors();
  /// Settle every live instance of a crashed producer as source-lost and
  /// cancel its outstanding copies (its CHI is gone; nothing more will
  /// be sent). Queue entries referencing the erased instances are
  /// purged lazily by the subclasses' stale-entry checks.
  void settle_source_loss(int node);
  /// Resolve a replica vote (kVoteResolved trace + counters); idempotent
  /// per instance.
  void settle_vote(Instance& inst, bool accepted, sim::Time at);
};

}  // namespace coeff::core
