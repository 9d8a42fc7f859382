// Probabilistic WCRT verifier (DESIGN.md §14).
//
// Design-time analytic P(deadline miss) per static message: each
// message's response time is a discrete distribution (analysis::Pmf)
// over "which retransmission attempt succeeded, and how late did
// slack-stealing contention push it", built by convolving
//
//   * the retransmission-count distribution derived from the per-attempt
//     failure probability p_z under the configured fault model
//     (fault::AnalyticFailure — i.i.d., Gilbert–Elliott at its
//     stationary distribution with exact Markov chaining, common-mode),
//   * the per-cycle competing-backlog distribution (a convolution of
//     Bernoulli(q_y) work terms over the other planned messages),
//     discharged through the schedule's guaranteed idle service per
//     cycle (sched::min_idle_in_window).
//
// The result is an *envelope*, not a point estimate: `p_miss_upper`
// chains attempts at their worst-case (adjacent, maximally bursty)
// correlation and worst-case timing; `p_miss_lower` assumes independent
// attempts that all land before the deadline. A simulated miss ratio
// outside [lower, upper] (plus sampling slack) is evidence of a modeling
// or implementation bug — that is rule analysis.prob-vs-campaign-
// divergence.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "analysis/pmf.hpp"
#include "fault/fault_model.hpp"
#include "fault/reliability.hpp"
#include "flexray/config.hpp"
#include "net/message.hpp"
#include "sched/schedule_table.hpp"

namespace coeff::analysis {

/// How the scheme under analysis spends its redundancy.
enum class ProbRetxModel : std::uint8_t {
  /// CoEfficient: k_z planned serial copies per instance, placed by
  /// slack stealing (contention-delayed, one per cycle at worst).
  kPlannedSerial,
  /// FSPEC: `rounds` mirrored dual-channel rounds in consecutive
  /// exclusive-slot occurrences (no contention).
  kMirroredRounds,
  /// HOSA: one mirrored dual-channel transmission, no retransmission.
  kMirroredSingle,
};

[[nodiscard]] const char* to_string(ProbRetxModel d);

struct ProbWcrtOptions {
  /// Quantization step of every Pmf. Rounding is upward, so a coarser
  /// quantum only makes the upper envelope more pessimistic.
  sim::Time quantum = sim::micros(50);
  std::size_t max_bins = 4096;
};

struct ProbWcrtInput {
  const flexray::ClusterConfig* cluster = nullptr;
  const net::MessageSet* statics = nullptr;
  /// Optional: placement latencies (r0). Unplaced/absent messages are
  /// bounded by one communication cycle.
  const sched::StaticScheduleTable* table = nullptr;
  /// kPlannedSerial: the plan's k_z vector (aligned with `statics`).
  const fault::RetransmissionPlan* plan = nullptr;
  /// kMirroredRounds: dual-channel rounds per instance.
  int rounds = 1;
  ProbRetxModel discipline = ProbRetxModel::kPlannedSerial;
  fault::FaultModelConfig fault_model;
  /// Reliability goal over `u` (0 disables the target rules).
  double rho = 0.0;
  sim::Time u = sim::seconds(3600);
  ProbWcrtOptions options;
};

struct MessageProb {
  int message_id = 0;
  std::string name;
  char sae_class = 'E';  ///< deadline bucket A(<=5ms) .. E(>50ms)
  int planned_attempts = 1;  ///< attempts the scheme pays for
  int timely_attempts = 1;   ///< credited attempts that fit before D
  /// False when the placement's release-to-slot path crosses into the
  /// next release's staging cycle: the primary is overwritten before it
  /// can transmit (a deterministic miss the schedule table's latency
  /// check does not see).
  bool primary_live = true;
  double p_attempt = 0.0;    ///< marginal per-attempt failure
  double p_miss_upper = 0.0;
  double p_miss_lower = 0.0;
  sim::Time deadline;
  sim::Time period;
  sim::Time response_p999;  ///< 99.9% quantile of the upper-envelope Pmf
  Pmf response{sim::micros(50), 1};  ///< upper-envelope response distribution
};

struct ClassProb {
  char sae_class = 'E';
  int messages = 0;
  double worst_p_miss_upper = 0.0;
  double worst_p_miss_lower = 0.0;
};

struct ProbWcrtResult {
  std::vector<MessageProb> messages;
  std::vector<ClassProb> classes;  ///< only classes with messages, A..E order
  /// Set-level Theorem-1 style aggregates: sum over z of
  /// (u/T_z) * log(1 - p_miss), at each envelope edge. -inf when any
  /// message's upper P(miss) reaches 1.
  double log_reliability_upper = 0.0;  ///< from p_miss_upper (pessimistic)
  double log_reliability_lower = 0.0;  ///< from p_miss_lower (optimistic)
  /// Guaranteed stealable service per communication cycle the
  /// contention model used (0 when the wire schedule has no slack).
  sim::Time guaranteed_service_per_cycle;
  /// Amortized per-cycle wire demand of the plan's k_z copies (each
  /// stolen (slot,channel) pair costs a whole static slot).
  sim::Time copy_demand_per_cycle;
  /// True when the copy demand fits inside the guaranteed service and
  /// the plan is not degraded — only then does the upper envelope
  /// credit retransmission copies (otherwise the admission test may
  /// drop them and no analytic guarantee exists).
  bool copies_credited = true;
  /// Per-cycle competing-backlog distribution (kPlannedSerial only).
  Pmf interference{sim::micros(50), 1};
};

/// Run the analysis. Throws std::invalid_argument on a malformed input
/// (null cluster/statics, plan shorter than the set, rounds < 1).
[[nodiscard]] ProbWcrtResult analyze_prob_wcrt(const ProbWcrtInput& input);

/// SAE deadline bucket of a message ('A'..'E').
[[nodiscard]] char sae_class_of(sim::Time deadline);

/// Rules analysis.prob-miss-exceeds-target and analysis.kz-contradiction
/// over an analysis result (per-rule diagnostic cap applied).
[[nodiscard]] Report lint_prob(const ProbWcrtInput& input,
                               const ProbWcrtResult& result);

/// One campaign cell (or any measured run) to cross-check against the
/// analytic envelope. `released`/`missed` count deadline-relevant
/// static-segment instances.
struct DivergenceSample {
  std::string label;
  std::int64_t released = 0;
  std::int64_t missed = 0;
  double p_upper = 0.0;
  double p_lower = 0.0;
};

/// Rule analysis.prob-vs-campaign-divergence (or `rule`, e.g. the
/// dynamic-segment variant): flags samples whose measured miss ratio
/// falls outside [p_lower - slack, p_upper + slack], slack = 5 binomial
/// sigma at the nearer envelope edge + 2/n (finite-sample guard).
/// Appends to `report` under the per-rule cap.
void check_divergence(const std::vector<DivergenceSample>& samples,
                      Report& report,
                      const char* rule = "analysis.prob-vs-campaign-divergence");

/// Human-readable and machine-readable renderings for `coeffctl analyze`.
[[nodiscard]] std::string render_prob_text(const ProbWcrtInput& input,
                                           const ProbWcrtResult& result);
[[nodiscard]] std::string render_prob_json(const ProbWcrtInput& input,
                                           const ProbWcrtResult& result);

}  // namespace coeff::analysis
