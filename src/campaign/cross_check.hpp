// Analytic-vs-simulated cross-validation (`coeffctl campaign report
// --analyze` and `coeffctl analyze --campaign DIR`).
//
// A finished campaign is a population of measured miss ratios; the
// probabilistic WCRT verifier (analysis::ProbWcrt) predicts an envelope
// for each of those cells from the manifest alone — the scenarios are
// regenerated statelessly from (seed, cell), exactly like a resume. A
// measured static-segment miss ratio outside its cell's analytic
// envelope (plus sampling slack) is rule
// analysis.prob-vs-campaign-divergence: either the model or the
// simulator is wrong, and both claims carry the cell's repro seed.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dyn_wcrt.hpp"
#include "analysis/prob_wcrt.hpp"
#include "campaign/manifest.hpp"
#include "campaign/report.hpp"
#include "core/experiment.hpp"
#include "sched/schedule_table.hpp"

namespace coeff::campaign {

/// The design under check, and everything analysis::ProbWcrtInput
/// points at, owned in one place so the pointers stay valid for the
/// caller's lifetime of the setup. Heap-allocate (make_prob_setup does)
/// — the input wires into members.
struct ProbSetup {
  core::ExperimentConfig config;  ///< owns cluster + message sets
  /// The scheme's schedule table; empty when its build threw, and then
  /// `table_error` holds what it said.
  std::optional<sched::StaticScheduleTable> table;
  std::string table_error;
  fault::RetransmissionPlan plan;  ///< CoEfficient's; input.plan points here
  analysis::ProbWcrtInput input;
  /// Dynamic-segment counterpart, wired whenever config.dynamics is
  /// non-empty (has_dynamics); shares plan/fault model with `input`.
  bool has_dynamics = false;
  analysis::DynWcrtInput dyn_input;
};

/// The one derivation of the design `scheme` runs under `config`, which
/// `coeffctl analyze` and `coeffctl lint` check: its schedule table
/// (core::table_options), its redundancy, discipline, goal and fault
/// model. CoEfficient gets its differentiated plan and slack-stolen
/// serial copies, FSPEC its exclusive-slot mirrored rounds
/// (core::fspec_rounds), HOSA a single mirrored shot. Never throws on
/// an unschedulable table: the input just loses its r0 refinement
/// (table = nullptr, one-cycle bound) and `table_error` says why.
[[nodiscard]] std::unique_ptr<ProbSetup> make_prob_setup(
    const core::ExperimentConfig& config, core::SchemeKind scheme,
    const analysis::ProbWcrtOptions& options);

/// Set-level expected static miss ratio envelope [lower, upper]:
/// per-message P(miss) edges weighted by release rate (1/T_z), i.e. the
/// expected fraction of static-segment instances that miss.
[[nodiscard]] std::pair<double, double> envelope_miss_ratio(
    const analysis::ProbWcrtResult& result);

/// Dynamic-segment analogue: expected fraction of dynamic releases that
/// miss, rate-weighted over the analyzed dynamic messages.
[[nodiscard]] std::pair<double, double> dyn_envelope_miss_ratio(
    const analysis::DynWcrtResult& result);

struct CrossCheckOptions {
  std::size_t max_cells = 16;  ///< analytic runs are per-cell; cap them
  analysis::ProbWcrtOptions prob;
};

struct CrossCheckSummary {
  std::size_t eligible = 0;  ///< ok, structural=none, s_released > 0
  std::size_t checked = 0;   ///< analytic envelope actually computed
  std::size_t diverged = 0;  ///< cells outside their envelope
  /// Dynamic-segment pass (rows with d_released > 0; legacy rows parse
  /// those counters as 0 and are skipped, never miscounted as clean).
  std::size_t dyn_eligible = 0;
  std::size_t dyn_checked = 0;
  std::size_t dyn_diverged = 0;  ///< analysis.dyn-vs-campaign-divergence
};

/// Re-derive the analytic envelope for up to `max_cells` eligible rows
/// (ok status, no structural fault — the analytic model speaks only
/// about channel loss — and a recorded static-segment population) and
/// append analysis.prob-vs-campaign-divergence findings to `report`.
[[nodiscard]] CrossCheckSummary cross_check_prob(
    const CampaignManifest& manifest, const std::vector<ResultRow>& rows,
    const CrossCheckOptions& options, analysis::Report& report);

}  // namespace coeff::campaign
