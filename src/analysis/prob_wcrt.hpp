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
//
// The envelope core in this header serves DynWcrt (§15) as well: the
// input and per-message record bases (EnvelopeInput, MessageEnvelope),
// the Theorem-1 fold with its SAE class rollup (SetEnvelope), the
// miss-exceeds-target rule and the renderers' common lines.
#pragma once

#include <algorithm>
#include <cmath>
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

/// The inputs both verifiers share (this one and DynWcrt, §15).
struct EnvelopeInput {
  const flexray::ClusterConfig* cluster = nullptr;
  /// kPlannedSerial: the plan's k_z vector (aligned with the static set);
  /// a degraded plan also sheds every dynamic release at its source.
  const fault::RetransmissionPlan* plan = nullptr;
  fault::FaultModelConfig fault_model;
  /// Reliability goal over `u` (0 disables the target rules).
  double rho = 0.0;
  sim::Time u = sim::seconds(3600);
  ProbWcrtOptions options;
  // Last, so ProbWcrtInput's `rounds` packs into the tail padding (see
  // MessageEnvelope on sizes).
  ProbRetxModel discipline = ProbRetxModel::kPlannedSerial;
};

struct ProbWcrtInput : EnvelopeInput {
  /// kMirroredRounds: dual-channel rounds per instance.
  int rounds = 1;
  const net::MessageSet* statics = nullptr;
  /// Optional: placement latencies (r0). Unplaced/absent messages are
  /// bounded by one communication cycle.
  const sched::StaticScheduleTable* table = nullptr;
};

/// What both verifiers report per message: the [lower, upper] P(miss)
/// envelope and the 99.9% quantile of the response distribution behind
/// its upper edge. The distribution itself is not kept: each one is a
/// whole grid (max_bins doubles), and no report reads it.
struct MessageEnvelope {
  // The id and the class share one word. A cold analysis's timing moves
  // with the records' sizes (heap layout; DESIGN.md §14): without the
  // grid they are 40 bytes smaller than the flat structs they replaced.
  int message_id = 0;
  char sae_class = 'E';  ///< deadline bucket A(<=5ms) .. E(>50ms)
  std::string name;
  /// Marginal failure of one wire attempt (DynWcrt: of the mirrored
  /// pair under the mirrored disciplines).
  double p_attempt = 0.0;
  double p_miss_upper = 0.0;
  double p_miss_lower = 0.0;
  sim::Time deadline;
  sim::Time period;
  sim::Time response_p999;  ///< 99.9% quantile of the upper-envelope Pmf
};

struct MessageProb : MessageEnvelope {
  int planned_attempts = 1;  ///< attempts the scheme pays for
  int timely_attempts = 1;   ///< credited attempts that fit before D
  /// False when the placement's release-to-slot path crosses into the
  /// next release's staging cycle: the primary is overwritten before it
  /// can transmit (a deterministic miss the schedule table's latency
  /// check does not see).
  bool primary_live = true;
};

struct ClassProb {
  char sae_class = 'E';
  int messages = 0;
  double worst_p_miss_upper = 0.0;
  double worst_p_miss_lower = 0.0;
};

/// Folds `c` into `classes`, kept in A..E order: message counts add up
/// and each edge keeps its worst P(miss).
void fold_class(std::vector<ClassProb>& classes, const ClassProb& c);

/// The set-level half both verifiers share: the paper's Theorem-1
/// product prod_z (1 - p_miss_z)^(u/T_z) at each envelope edge, kept as
/// its log, and the worst edges per SAE class.
struct SetEnvelope {
  std::vector<ClassProb> classes;  ///< only classes with messages, A..E order
  /// Sum over z of (u/T_z) * log(1 - p_miss) at each envelope edge. -inf
  /// when any message's upper P(miss) reaches 1.
  double log_reliability_upper = 0.0;  ///< from p_miss_upper (pessimistic)
  double log_reliability_lower = 0.0;  ///< from p_miss_lower (optimistic)

  /// Folds one message into both products and into its class; fold in
  /// report order (floating-point sums are order-sensitive).
  void fold(const MessageEnvelope& m, sim::Time u);
};

struct ProbWcrtResult : SetEnvelope {
  std::vector<MessageProb> messages;
  /// Guaranteed stealable service per communication cycle the
  /// contention model used (0 when the wire schedule has no slack).
  sim::Time guaranteed_service_per_cycle;
  /// Amortized per-cycle wire demand of the plan's k_z copies (each
  /// stolen (slot,channel) pair costs a whole static slot).
  sim::Time copy_demand_per_cycle;
  /// True when the copy demand fits inside the guaranteed service and
  /// the plan is not degraded — only then does the upper envelope
  /// credit retransmission copies (otherwise the walk may drop them,
  /// when a copy's deadline passes with no fitting slack, and no
  /// analytic guarantee exists).
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

// --- Envelope core shared with DynWcrt (§15) -----------------------------

/// Probability that the first `n` wire attempts of a `bits`-bit frame
/// all fail, at the pessimistic (worst-case burst correlation) edge of
/// the envelope. DynWcrt spends one attempt per instance (n = 1).
[[nodiscard]] double chain_fail(fault::AnalyticFailure& af, ProbRetxModel d,
                                std::int64_t bits, int n);
/// Independence (optimistic) counterpart of chain_fail.
[[nodiscard]] double indep_fail(fault::AnalyticFailure& af, ProbRetxModel d,
                                std::int64_t bits, int n);

/// One message's factor of the Theorem-1 product, as its log:
/// (u/T) * log(1 - p_miss), -inf once p_miss reaches 1.
[[nodiscard]] double theorem1_term(double p_miss, sim::Time period,
                                   sim::Time u);

/// The reliability goal the lint passes check, on the log scale: the
/// plan's Theorem-1 target when it records one, else log(rho).
struct ReliabilityTarget {
  explicit ReliabilityTarget(const EnvelopeInput& input);

  /// A configured target the plan claims to meet, which
  /// `log_reliability` misses.
  [[nodiscard]] bool missed_by(double log_reliability) const {
    return has_target && plan_claims_met &&
           log_reliability < log_target - tol;
  }

  double log_target = 0.0;
  bool has_target = false;   ///< a target is configured at all
  double tol = 0.0;          ///< comparison slack on the log scale
  bool plan_claims_met = true;  ///< no plan, or one that is not degraded
};

/// Body of rules analysis.prob-miss-exceeds-target and
/// analysis.dyn-miss-exceeds-target: when the plan claims the target is
/// met but the set's pessimistic reliability misses it, report the miss
/// (`segment` qualifies the reliability, e.g. "dynamic-segment ") and
/// then every message whose Theorem-1 term overdraws its equal share of
/// the budget, in the words of `line(message)`.
template <class Result, class Line>
void check_miss_exceeds_target(CappedReport& out, const char* rule,
                               const char* segment,
                               const EnvelopeInput& input,
                               const Result& result, Line line) {
  const ReliabilityTarget target(input);
  if (!target.missed_by(result.log_reliability_upper)) return;
  out.add(rule, strformat("analytic %sreliability %.6g misses the target "
                          "%.6g (log %.4g < %.4g)",
                          segment, std::exp(result.log_reliability_upper),
                          std::exp(target.log_target),
                          result.log_reliability_upper, target.log_target));
  const double share = target.log_target /
                       std::max<std::size_t>(1, result.messages.size());
  for (const auto& m : result.messages) {
    if (theorem1_term(m.p_miss_upper, m.period, input.u) <
        share - target.tol) {
      Location loc;
      loc.message_id = m.message_id;
      out.add(rule, line(m), loc);
    }
  }
}

/// Opening text lines: "<title> (<discipline>, <fault model>)" and the
/// reliability envelope over u against the target.
[[nodiscard]] std::string render_envelope_header(const char* title,
                                                 const EnvelopeInput& input,
                                                 const SetEnvelope& set);
/// Opening of a JSON object: discipline, fault model, rho and u, each
/// followed by a comma (the object is left open).
[[nodiscard]] std::string render_json_prelude(const EnvelopeInput& input);
/// The log reliability pair, each followed by a comma. JSON has no -inf,
/// so "certain miss" is pinned to the most negative finite double
/// (exp() of it is still 0).
[[nodiscard]] std::string render_json_reliability(const SetEnvelope& set);
/// One "  <scope>class X: ..." line per class.
[[nodiscard]] std::string render_class_text(
    const std::vector<ClassProb>& classes, const char* scope = "");
/// JSON array with one object per class.
[[nodiscard]] std::string render_class_json(
    const std::vector<ClassProb>& classes);

}  // namespace coeff::analysis
