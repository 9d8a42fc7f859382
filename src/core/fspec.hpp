// FSPEC: the standard FlexRay-specification baseline the paper compares
// against (§IV-B), i.e. the state of practice before CoEfficient:
//
// * Segments are scheduled separately; idle static slots stay idle — no
//   slack stealing, no cooperation between segments.
// * Dual-channel operation is the spec's plain mirroring: channel B
//   carries an identical copy of every channel A frame, static and
//   dynamic. Mirroring doubles copies but halves the distinct-frame
//   capacity of the dynamic segment.
// * The static schedule reserves an *exclusive slot per message* in
//   every cycle (the plain-spec behaviour; cycle multiplexing is the
//   optimization CoEfficient's table uses). Occurrences between releases
//   go idle and cannot be reused — the paper's "idle slacks that
//   unfortunately can not [be] used by dynamic segments". When messages
//   outnumber slots, the loosest-deadline messages get no slot at all
//   (data loss under separate scheduling).
// * Best-effort retransmission for all segments: every static instance
//   is (re)transmitted for `rounds` mirrored rounds, serially, in the
//   consecutive occurrences of its exclusive slot. Fresh data preempts
//   the train once the old instance has had at least one round, so under
//   load the extra rounds are silently dropped — best effort "fails to
//   achieve high reliability" exactly as §I-Challenge 2 describes.
// * Dynamic messages are served purely priority-based (FTDMA); no
//   overflow path exists, so low-priority frames starve under load.
#pragma once

#include <optional>
#include <vector>

#include "core/scheduler_base.hpp"

namespace coeff::core {

struct FspecOptions {
  /// Pre-planned transmission rounds per static instance (each round is
  /// mirrored on both channels). 1 = no redundancy. core::fspec_rounds
  /// matches a reliability goal the way FSPEC would (uniformly, for all
  /// segments).
  int rounds = 1;
};

class FspecScheduler : public SchedulerBase {
 public:
  FspecScheduler(const flexray::ClusterConfig& cfg, net::MessageSet statics,
                 net::MessageSet dynamics, sim::Time batch_window,
                 const FspecOptions& options);

  // --- TransmissionPolicy ----------------------------------------------
  std::optional<flexray::TxRequest> static_slot(flexray::ChannelId channel,
                                                units::CycleIndex cycle,
                                                units::SlotId slot) override;
  /// Batched decision path for the Cluster's walk: one pass over the
  /// chunk staging the A/B round pair per armed exclusive slot. Stages
  /// exactly what the default per-slot loop would (equivalence note in
  /// the implementation).
  void decide_static_chunk(units::CycleIndex cycle, std::int64_t slot_begin,
                           std::int64_t slot_end,
                           StaticChunkSink& sink) override;
  /// Channel A: the shared FTDMA dispatch (take_dynamic), staging each
  /// frame as its channel-B mirror; channel B replays the mirror.
  std::optional<flexray::TxRequest> dynamic_slot(
      flexray::ChannelId channel, units::CycleIndex cycle,
      units::SlotId slot_counter, units::MinislotId minislot,
      std::int64_t minislots_remaining) override;
  [[nodiscard]] std::int64_t dynamic_next_frame(
      flexray::ChannelId channel, std::int64_t min_frame) const override;
  void on_tx_complete(const flexray::TxOutcome& outcome) override;

 protected:
  void on_static_release(Instance& inst, const net::Message& m) override;
  void on_dynamic_release(Instance& inst, const net::Message& m,
                          const flexray::PendingMessage& pending) override;
  /// A crash erased the node's instances; the round trains referencing
  /// them must be reset or they would dereference (and resubmit) dead
  /// keys. FSPEC has no further recovery: the exclusive slots simply go
  /// idle until the node returns.
  void on_node_down(units::NodeId node, units::CycleIndex cycle,
                    sim::Time at) override;

 private:
  /// Per-message serial round train: the transmitting instance and the
  /// staged next one (0 = empty).
  struct RoundState {
    std::uint64_t current = 0;
    int rounds_done = 0;
    std::uint64_t staged = 0;
  };

  /// The round train of the occupant of (slot, cycle), or nullptr when
  /// the occurrence is unreserved.
  [[nodiscard]] RoundState* round_at(units::SlotId slot,
                                     units::CycleIndex cycle);

  FspecOptions options_;
  std::vector<RoundState> round_state_;  ///< by static position
};

}  // namespace coeff::core
