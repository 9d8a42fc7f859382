// Bus channel model: transmission requests, outcomes, and per-channel
// accounting.
//
// A Channel does not decide *what* to send (that is the scheduler
// policy's job) nor *whether a fault occurs* (that is the fault
// injector's); it clocks a requested frame onto the wire, asks the
// corruption hook for a verdict, and keeps utilization statistics that
// the metrics layer reads (busy time per segment, frame/corruption
// counts).
#pragma once

#include <cstdint>
#include <functional>

#include "flexray/config.hpp"
#include "flexray/timing.hpp"
#include "sim/time.hpp"
#include "units/units.hpp"

namespace coeff::flexray {

/// What a scheduler asks the bus to carry in one slot.
struct TxRequest {
  /// Scheduler-opaque message-instance identifier, echoed in the outcome.
  std::uint64_t instance = 0;
  /// Frame ID; must equal the slot (static) / slot counter (dynamic).
  FrameId frame_id{0};
  /// Sending node.
  units::NodeId sender{-1};
  /// Payload size in bits (excluding frame header/trailer overhead).
  std::int64_t payload_bits = 0;
  /// True when this transmission is a scheduled retransmission copy.
  bool retransmission = false;
  /// True when a static primary was re-homed from a dead channel to the
  /// surviving one (dual-channel failover). Lets the accounting layer
  /// attribute failover latency without guessing.
  bool failover = false;
};

/// What actually happened on the wire.
struct TxOutcome {
  TxRequest request;
  ChannelId channel = ChannelId::kA;
  sim::Time start;
  sim::Time end;
  units::CycleIndex cycle{0};
  /// Static slot number or dynamic slot counter.
  units::SlotId slot{0};
  Segment segment = Segment::kStatic;
  bool corrupted = false;
  /// The frame never reached the wire: the channel was dark (blackout)
  /// when its slot came around. Lost outcomes are always corrupted, are
  /// not counted in ChannelStats, and produce no receiver-side verdict
  /// (the reliability monitor must not learn from them).
  bool lost = false;
};

/// Decides whether a given transmission is corrupted by a transient
/// fault. Deterministic given the injector's seed.
using CorruptionFn =
    std::function<bool(const TxRequest&, ChannelId, sim::Time start)>;

/// One pending fault verdict in a batched draw (static segment).
/// `request` stays owned by the caller for the duration of the call.
struct VerdictQuery {
  const TxRequest* request = nullptr;
  ChannelId channel = ChannelId::kA;
  sim::Time start;
};

/// Draws `n` verdicts at once, writing one bool per query to `out`.
/// Queries arrive in exact wire order, so an implementation that walks
/// them sequentially produces a verdict stream identical to per-frame
/// CorruptionFn calls (fault::FaultModel::draw_batch does exactly that).
using BatchCorruptionFn =
    std::function<void(const VerdictQuery*, std::size_t, bool* out)>;

struct ChannelStats {
  std::int64_t frames = 0;
  std::int64_t corrupted_frames = 0;
  std::int64_t retransmission_frames = 0;
  sim::Time busy_static;   ///< wire time spent in static slots
  sim::Time busy_dynamic;  ///< wire time spent in dynamic slots
  std::int64_t payload_bits = 0;
  std::int64_t minislots_used = 0;  ///< minislots consumed by dynamic TX
};

class Channel {
 public:
  Channel(ChannelId id, CorruptionFn corruption)
      : id_(id), corruption_(std::move(corruption)) {}

  /// Clock a frame onto the wire. `duration` is the wire occupancy
  /// (already bounded by the slot by the caller). `force_corrupt` marks
  /// the frame corrupted regardless of the corruption hook's verdict
  /// (babbling-idiot collision, out-of-sync sender); the hook is still
  /// consulted so per-channel verdict streams advance deterministically.
  TxOutcome transmit(const TxRequest& req, sim::Time start, sim::Time duration,
                     units::CycleIndex cycle, units::SlotId slot,
                     Segment segment, bool force_corrupt = false);

  /// Clock a frame whose fault verdict was already drawn (batched
  /// verdicts). transmit() is this after one hook call; here the
  /// corruption hook is NOT consulted — the caller drew this frame's
  /// verdict from the same model via a BatchCorruptionFn, and drawing
  /// twice would desynchronise the verdict stream.
  TxOutcome transmit_with_verdict(const TxRequest& req, sim::Time start,
                                  sim::Time duration, units::CycleIndex cycle,
                                  units::SlotId slot, Segment segment,
                                  bool corrupted, bool force_corrupt = false);

  /// Synthesize the outcome of a transmission attempted while the
  /// channel is dark: the frame is lost, nothing touches the wire, no
  /// stats are charged and the corruption hook is NOT consulted (a dark
  /// channel yields no receiver verdicts).
  [[nodiscard]] TxOutcome lose(const TxRequest& req, sim::Time start,
                               sim::Time duration, units::CycleIndex cycle,
                               units::SlotId slot, Segment segment) const;

  /// Dynamic-segment bookkeeping: record minislots consumed.
  void account_minislots(std::int64_t n) { stats_.minislots_used += n; }

  /// Availability state (blackout windows): a dark channel carries
  /// nothing. Flipped by the Cluster at cycle boundaries from the
  /// structural fault provider.
  void set_available(bool available) { available_ = available; }
  [[nodiscard]] bool available() const { return available_; }

  [[nodiscard]] ChannelId id() const { return id_; }
  [[nodiscard]] const ChannelStats& stats() const { return stats_; }
  void reset_stats() { stats_ = ChannelStats{}; }

 private:
  ChannelId id_;
  CorruptionFn corruption_;
  ChannelStats stats_;
  bool available_ = true;
};

}  // namespace coeff::flexray
