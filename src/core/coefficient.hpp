// CoEfficient: cooperative, reliability-aware dual-channel scheduling
// (the paper's contribution, §III).
//
// * Static messages (hard periodic): primary copy on channel A in the
//   slot the schedule table reserves.
// * Retransmitted segments (hard aperiodic): the differentiated plan
//   (fault::solve_differentiated) assigns each static message k_z extra
//   copies per instance to meet the reliability goal rho. Copies are
//   placed by *selective slack stealing*: any (slot, channel) pair that
//   the static table leaves idle — channel B's mirror of an occupied A
//   slot, or a fully idle slot on either channel — whose capacity fits
//   the copy and whose end lies before the instance deadline. Copies
//   are served earliest-deadline-first; a copy whose deadline passes
//   with no fitting slack is dropped and counted.
// * Dynamic messages (soft aperiodic): FTDMA over *both* channels with
//   independent slot counters (dual-channel cooperation), plus overflow
//   into stolen static slack once no retransmission copy wants it.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>

#include "core/scheduler_base.hpp"
#include "fault/monitor.hpp"
#include "fault/reliability.hpp"
#include "fault/structural.hpp"
#include "flexray/power.hpp"
#include "sched/criticality.hpp"

namespace coeff::core {

struct CoEfficientOptions {
  double ber = 1e-7;
  /// Reliability goal over the time unit `u`; 0 disables retransmission
  /// planning entirely (pure cooperative scheduling).
  double rho = 0.0;
  sim::Time u = sim::seconds(3600);
  int max_copies_per_message = 8;

  // --- Runtime reliability monitoring ----------------------------------
  /// Track the observed corruption rate and re-plan online when it
  /// drifts beyond the planned BER (requires rho > 0).
  bool enable_monitor = false;
  fault::ReliabilityMonitorOptions monitor;

  // --- Structural fault recovery (DESIGN.md §11) -----------------------
  /// NMR replica voting for static messages: every instance is staged
  /// with `vote_replicas` copies total (primary + replicas through the
  /// slack-stealing machinery) and is delivered only when a strict
  /// majority arrives uncorrupted. Must be odd and >= 3 when set;
  /// 0 = plain first-success acceptance.
  int vote_replicas = 0;
  /// Infer membership from wire silence (fault::SilentNodeDetector)
  /// instead of reacting to the crash event directly: a node expected on
  /// the wire but silent for `silent_cycle_threshold` consecutive cycles
  /// is flagged and its slots re-planned as stealable slack — the way a
  /// distributed membership service (bus guardian) would learn of the
  /// crash. When false, membership re-planning is immediate on the
  /// topology event.
  bool silent_node_detection = false;
  int silent_cycle_threshold = 2;

  // --- Mixed-criticality mode protocol (DESIGN.md §16) -----------------
  /// When enabled, a three-mode state machine (NORMAL → DEGRADED-L1 →
  /// DEGRADED-L2) driven by the monitor's drift ratio and
  /// dynamic-backlog overload sheds low-criticality dynamic traffic at
  /// release and matches it up (bounded re-admission bursts) once the
  /// drift clears. Orthogonal to the plan-infeasibility degraded flag
  /// (plan().degraded), which keeps its legacy shed-everything
  /// semantics.
  sched::ModePolicy mode_policy;

  // --- Per-node DVFS/DPM power model (DESIGN.md §16) -------------------
  /// When set, an EnergyMeter accounts each cycle: DVFS level follows
  /// the criticality mode, and transceivers sleep through idle static
  /// slots whenever no retransmission copy is queued.
  bool power = false;

  // --- Ablation switches (DESIGN.md §6) --------------------------------
  /// Replace the differentiated plan with the uniform one (same k for
  /// every message) at the same reliability goal.
  bool use_uniform_plan = false;
  /// Disable selective slack stealing: retransmission copies may only
  /// ride channel B of their own message's slot, and dynamic overflow
  /// never enters the static segment.
  bool disable_slack_stealing = false;
  /// Serve the dynamic segment on channel A only (channel B idle there),
  /// as in schemes that pin one channel per role.
  bool single_channel_dynamics = false;
};

class CoEfficientScheduler : public SchedulerBase {
 public:
  CoEfficientScheduler(const flexray::ClusterConfig& cfg,
                       net::MessageSet statics, net::MessageSet dynamics,
                       sim::Time batch_window,
                       const CoEfficientOptions& options);

  [[nodiscard]] const fault::RetransmissionPlan& plan() const { return plan_; }

  // --- TransmissionPolicy ----------------------------------------------
  std::optional<flexray::TxRequest> static_slot(flexray::ChannelId channel,
                                                units::CycleIndex cycle,
                                                units::SlotId slot) override;
  /// Batched decide for the Cluster's walk: same decisions as per-slot
  /// static_slot calls, but the slack peek is served from a
  /// version-stamped cache (DESIGN.md §12). static_slot keeps the naive
  /// per-slot scan — it is the policy half of the slot-by-slot reference
  /// walk (tests/support/reference_cluster.*).
  void decide_static_chunk(units::CycleIndex cycle, std::int64_t slot_begin,
                           std::int64_t slot_end,
                           flexray::TransmissionPolicy::StaticChunkSink& sink)
      override;
  /// The shared FTDMA dispatch (take_dynamic) on both channels, except
  /// channel B under single_channel_dynamics and any dark channel.
  std::optional<flexray::TxRequest> dynamic_slot(
      flexray::ChannelId channel, units::CycleIndex cycle,
      units::SlotId slot_counter, units::MinislotId minislot,
      std::int64_t minislots_remaining) override;
  [[nodiscard]] std::int64_t dynamic_next_frame(
      flexray::ChannelId channel, std::int64_t min_frame) const override;
  void on_tx_complete(const flexray::TxOutcome& outcome) override;
  void on_cycle_end(units::CycleIndex cycle, sim::Time at) override;

 protected:
  [[nodiscard]] const std::unordered_map<int, int>* retransmission_budget()
      const override {
    return &copies_by_message_;
  }
  void on_cycle_start_hook(units::CycleIndex cycle, sim::Time at) override;
  void on_static_release(Instance& inst, const net::Message& m) override;
  void on_dynamic_release(Instance& inst, const net::Message& m,
                          const flexray::PendingMessage& pending) override;
  void on_node_down(units::NodeId node, units::CycleIndex cycle,
                    sim::Time at) override;
  void on_node_up(units::NodeId node, units::CycleIndex cycle,
                  sim::Time at) override;

 private:
  /// The planned retransmission copies of one instance waiting for
  /// slack. Its copies are identical, so one entry carries their count.
  struct RetxJob {
    std::uint64_t instance;
    int node;
    std::int64_t bits;
    sim::Time release;
    sim::Time deadline;
    units::SlotId home_slot{0};  ///< the message's own static slot
    int copies = 0;              ///< copies still queued, >= 1
  };

  /// Earliest-deadline retransmission job that fits `capacity_bits` and
  /// whose deadline admits completion by `slot_end`; end() if none.
  /// `slot`/`channel` identify the offered wire for the
  /// disable_slack_stealing ablation filter.
  std::deque<RetxJob>::iterator find_retx(std::int64_t capacity_bits,
                                          sim::Time slot_start,
                                          sim::Time slot_end, units::SlotId slot,
                                          flexray::ChannelId channel);

  /// Earliest-deadline queued dynamic message (across all nodes) that
  /// fits `capacity_bits`, for transmission in stolen static slack.
  [[nodiscard]] std::optional<flexray::PendingMessage> peek_dynamic_for_slack(
      std::int64_t capacity_bits, sim::Time slot_start) const;

  /// Memoized peek_dynamic_for_slack for the batched decide. Caches the
  /// best *fitting* entry (ignoring the waited-a-cycle filter) keyed by
  /// the sum of the per-queue version counters; the filter is applied at
  /// query time. Exact: the cached best has the minimum release among
  /// fitting entries, so if it has not waited a full cycle, none has.
  /// Assumes `capacity_bits` is invariant across calls (it is always
  /// static_slot_capacity_bits()).
  [[nodiscard]] std::optional<flexray::PendingMessage> peek_dynamic_cached(
      std::int64_t capacity_bits, sim::Time slot_start) const;

  /// Body of static_slot for `slot`, which starts at `slot_start`;
  /// `use_slack_cache` selects the memoized peek (decide_static_chunk)
  /// or the naive scan (static_slot, the reference walk's path).
  std::optional<flexray::TxRequest> decide_static(flexray::ChannelId channel,
                                                  units::CycleIndex cycle,
                                                  units::SlotId slot,
                                                  sim::Time slot_start,
                                                  bool use_slack_cache);

  /// One stolen slot in kSoftShare is reserved for soft traffic when
  /// both hard copies and soft messages are waiting.
  static constexpr std::int64_t kSoftShare = 4;

  /// (Re)solve the retransmission plan at `ber` and install it: future
  /// static releases use the new k_z (in-flight copies are untouched,
  /// so a swap takes effect at the calling cycle boundary). Messages of
  /// dead members are excluded from the solve. An unreachable rho yields
  /// the solver's best plan, flagged degraded (plan_.degraded: while
  /// set, dynamic-segment load is shed to keep slack free for hard
  /// copies). Updates the resilience metrics.
  void rebuild_plan(double ber);

  /// Re-solve after a membership change (crash detected / reintegration)
  /// and record it (membership_replans counter, kPlanSwap trace).
  void replan_membership(units::CycleIndex cycle, sim::Time at);

  CoEfficientOptions options_;
  fault::RetransmissionPlan plan_;
  /// cfg_.static_slot_capacity_bits(), hoisted: the config is immutable
  /// after construction and the value is read on every slot decision.
  std::int64_t static_capacity_bits_ = 0;
  std::int64_t idle_slot_counter_ = 0;
  std::unordered_map<int, int> copies_by_message_;  ///< k_z by message id
  /// EDF-ordered, FIFO among equal deadlines; one entry per instance.
  std::deque<RetxJob> retx_jobs_;
  std::unique_ptr<fault::ReliabilityMonitor> monitor_;
  std::unique_ptr<fault::SilentNodeDetector> detector_;
  /// By node: 1 while the node is excluded from the retransmission plan
  /// (crashed, or flagged silent by the detector) and its slots are
  /// stealable.
  std::vector<char> member_dead_;

  // --- Mixed-criticality mode protocol (DESIGN.md §16) -----------------
  /// One shed dynamic message awaiting match-up. Keyed by message id
  /// with keep-latest dedupe, so the backlog is bounded by the dynamic
  /// set size and match-up re-admission walks ids in deterministic
  /// order.
  struct ShedEntry {
    int node = 0;
    net::Criticality level = net::Criticality::kLow;
    sim::Time shed_at;  ///< release time of the shed instance
  };
  std::unique_ptr<sched::ModeManager> mode_mgr_;  ///< when mode_policy.enabled
  std::map<int, ShedEntry> shed_backlog_;         ///< by message id
  /// True when any message carries an explicit (non-kLow) level; when
  /// false, effective_criticality applies the kind defaults.
  bool any_criticality_assigned_ = false;

  // --- Energy accounting (flexray::EnergyMeter) ------------------------
  std::unique_ptr<flexray::EnergyMeter> energy_;  ///< when options.power
  std::int64_t cycle_tx_bits_ = 0;     ///< wire bits this cycle (outcome side)
  std::int64_t last_idle_counter_ = 0; ///< idle_slot_counter_ at last cycle end

  // Slack-peek cache (decide_static_chunk only; see peek_dynamic_cached).
  mutable std::uint64_t slack_peek_stamp_ = 0;
  mutable bool slack_peek_valid_ = false;
  mutable std::optional<flexray::PendingMessage> slack_peek_best_;
};

}  // namespace coeff::core
