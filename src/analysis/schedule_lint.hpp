// ScheduleLint: offline legality + guarantee recheck (DESIGN.md §9).
//
// Statically verifies, before any simulation runs, that a cluster
// configuration, message set, schedule table and retransmission plan
// together uphold the invariants the runtime relies on:
//
//  * FlexRay legality — parameter constraints, slot bounds, FrameID
//    uniqueness per channel over the whole multiplexing period, static
//    payloads vs slot capacity, minislot accounting for the dynamic
//    segment;
//  * task-model sanity — deadline in (0, period], bounded hyperperiod;
//  * the paper's guarantees — a closed-form Theorem-1 recheck of the
//    solved k_z plan against rho, a (sufficient) RTA cross-check that
//    every static frame's worst-case response fits its deadline, and
//    the exact offline periodic schedule over three hyperperiods (the
//    window slack queries fold into) meeting every deadline.
//
// Structural rules run first; the semantic rules (schedule, RTA,
// Theorem 1) are skipped when a structural error already fired, exactly
// like a compiler skips later phases on a parse error.
#pragma once

#include "analysis/diagnostic.hpp"
#include "fault/reliability.hpp"
#include "flexray/config.hpp"
#include "net/message.hpp"
#include "sched/schedule_table.hpp"
#include "sim/time.hpp"

namespace coeff::analysis {

struct ScheduleLintInput {
  const flexray::ClusterConfig* cluster = nullptr;  ///< required
  const net::MessageSet* statics = nullptr;         ///< optional
  const net::MessageSet* dynamics = nullptr;        ///< optional
  const sched::StaticScheduleTable* table = nullptr;   ///< optional
  const fault::RetransmissionPlan* plan = nullptr;     ///< optional
  /// Theorem-1 recheck parameters (match what the plan was solved with).
  double ber = 1e-7;
  double rho = 0.0;  ///< 0 disables the recheck
  sim::Time u = sim::seconds(3600);
};

[[nodiscard]] Report lint_schedule(const ScheduleLintInput& input);

}  // namespace coeff::analysis
