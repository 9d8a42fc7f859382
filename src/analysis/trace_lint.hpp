// TraceLint: protocol-conformance checking of recorded traces
// (DESIGN.md §9).
//
// Replays a `sim::Trace` against the cluster configuration and checks
// the runtime invariants the simulator is supposed to uphold:
//
//  * timestamps are monotone and every record kind is in range;
//  * cycle starts sit exactly on the cycle grid;
//  * no two transmissions overlap on one channel (static slots occupy
//    their fixed duration, dynamic frames their wire time);
//  * every retransmission has a cause, per the scheme's discipline —
//    planned copies are charged against prior kRetransmissionScheduled
//    budget, round-train copies must repeat an earlier transmission of
//    the same (sender, frame), mirrored copies must ride channel B;
//  * plan swaps land only on cycle boundaries;
//  * load shedding happens only while the scheduler is degraded.
//
// A trace that survives TraceLint is internally consistent; a rule
// firing means either a corrupted trace or a scheduler regression.
#pragma once

#include "analysis/diagnostic.hpp"
#include "analysis/prob_wcrt.hpp"
#include "flexray/config.hpp"
#include "sim/trace.hpp"

namespace coeff::analysis {

struct TraceLintInput {
  const sim::Trace* trace = nullptr;              ///< required
  const flexray::ClusterConfig* cluster = nullptr;  ///< required
  /// How the recorded scheme justifies retransmission copies: planned
  /// copies are budgeted by kRetransmissionScheduled, rounds repeat an
  /// earlier transmission of the same frame, and every channel-B copy
  /// of a single mirrored shot is a legal mirror.
  ProbRetxModel discipline = ProbRetxModel::kPlannedSerial;
  /// Whether the scheduler started the run already degraded (a plan
  /// solved below rho); load shedding before the first plan swap is
  /// legal only in that case.
  bool initial_degraded = false;
};

[[nodiscard]] Report lint_trace(const TraceLintInput& input);

}  // namespace coeff::analysis
