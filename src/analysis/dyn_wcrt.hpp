// Dynamic-segment probabilistic response-time verifier (DESIGN.md §15).
//
// Analytic P(deadline miss) per *dynamic* message under FlexRay FTDMA
// minislot arbitration: the minislot counter walks the dynamic segment,
// every lower FrameID consumes at least one minislot (its idle walk) and
// `need_g` minislots when it transmits, and a frame may only start while
//
//   minislot + 1 <= pLatestTx   and   need_z <= N - minislot,
//
// otherwise the whole instance slips a communication cycle. From that
// geometry the verifier derives, per message z:
//
//  * a deterministic-starvation predicate (the frame can *never* start:
//    its baseline walk position already violates the cutoff),
//  * a correlation-free upper bound on the per-instance blocked
//    probability (Markov bound on the higher-priority extra-minislot
//    load, amortized over the instance's timely opportunity cycles — no
//    independence assumption, so adversarial arrival phasing is covered),
//  * a nominal (independence-model) blocked probability from the
//    higher-priority interference distribution convolved on an exact
//    minislot-quantum analysis::Pmf grid, composed into a nominal
//    response distribution through the geometric cycle-slip operator
//    `with_cycle_slips`.
//
// Both edges then compose with the per-attempt failure probability from
// fault::AnalyticFailure exactly as §14 does for the static segment:
// CoEfficient spends one single-channel attempt per dynamic instance
// (kPlannedSerial; a degraded plan sheds every dynamic release, envelope
// [1, 1]), FSPEC and HOSA spend one mirrored dual-channel pair
// (kMirroredRounds / kMirroredSingle). The result is a sound envelope
// [p_miss_lower, p_miss_upper]; a measured campaign rate outside it
// (plus sampling slack) is rule analysis.dyn-vs-campaign-divergence.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "analysis/pmf.hpp"
#include "analysis/prob_wcrt.hpp"
#include "fault/fault_model.hpp"
#include "fault/reliability.hpp"
#include "flexray/config.hpp"
#include "net/message.hpp"

namespace coeff::analysis {

struct DynWcrtInput : EnvelopeInput {
  /// Dynamic messages (kind kDynamic, frame_id > gNumberOfStaticSlots).
  /// The shared `discipline` decides the redundancy: kPlannedSerial
  /// (CoEfficient) spends one single-channel attempt per instance and may
  /// rescue a starved frame through stolen static slack; the mirrored
  /// disciplines spend one dual-channel pair and have no rescue path.
  const net::MessageSet* dynamics = nullptr;
  /// Cycle-slip cap of the nominal response model (>= 1).
  int max_slips = 64;
};

struct DynMessageProb : MessageEnvelope {
  int frame_id = 0;
  /// Minislots one transmission consumes (incl. the dynamic-slot idle
  /// phase) and the walk geometry it faces.
  std::int64_t need_minislots = 0;
  std::int64_t baseline_offset = 0;   ///< minislots walked before its turn
  std::int64_t slack_minislots = 0;   ///< latest feasible start - baseline
  /// Degraded-plan load shed: the scheme drops the release at its source.
  bool shed = false;
  /// Deterministic starvation: even an empty segment never reaches a
  /// feasible start position (baseline beyond the pLatestTx/fit cutoff).
  bool starved = false;
  /// Upper-envelope per-instance blocked probability (correlation-free).
  double p_blocked_upper = 0.0;
  /// Independence-model blocked probability from the convolved
  /// interference grid (diagnostic, not an envelope edge).
  double p_blocked_nominal = 0.0;
  sim::Time nominal_p999;    ///< 99.9% quantile of the nominal model
};

/// The set envelope is the Theorem-1 fold over the dynamic set (§14).
struct DynWcrtResult : SetEnvelope {
  std::vector<DynMessageProb> messages;
  /// Full-set higher-priority extra-minislot distribution, convolved on
  /// the minislot-quantum grid (independence model, diagnostic).
  Pmf interference{sim::micros(50), 1};
};

/// Run the analysis. Throws std::invalid_argument on malformed input
/// (null cluster/dynamics, max_slips < 1, a message without a dynamic
/// frame id).
[[nodiscard]] DynWcrtResult analyze_dyn_wcrt(const DynWcrtInput& input);

/// Rules analysis.dyn-starvation and analysis.dyn-miss-exceeds-target
/// over an analysis result (per-rule diagnostic cap applied).
[[nodiscard]] Report lint_dyn(const DynWcrtInput& input,
                              const DynWcrtResult& result);

/// Merge static and dynamic per-SAE-class envelopes into one end-to-end
/// per-class envelope (worst edge of either segment per class). Either
/// vector may be empty.
[[nodiscard]] std::vector<ClassProb> merge_class_envelopes(
    const std::vector<ClassProb>& statics, const std::vector<ClassProb>& dyns);

/// Human-readable rendering for `coeffctl analyze` (dynamic section).
[[nodiscard]] std::string render_dyn_text(const DynWcrtInput& input,
                                          const DynWcrtResult& result);
/// JSON object (not a full document) describing the dynamic section.
[[nodiscard]] std::string render_dyn_json(const DynWcrtInput& input,
                                          const DynWcrtResult& result);
/// Text block for the merged end-to-end class envelopes (their JSON
/// array is render_class_json).
[[nodiscard]] std::string render_end_to_end_text(
    const std::vector<ClassProb>& classes);

}  // namespace coeff::analysis
