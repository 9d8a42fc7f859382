#include "campaign/cross_check.hpp"

#include <algorithm>
#include <cinttypes>

#include "analysis/diagnostic.hpp"
#include "campaign/scenario.hpp"
#include "fault/reliability.hpp"

namespace coeff::campaign {

std::unique_ptr<ProbSetup> make_prob_setup(
    const core::ExperimentConfig& config, core::SchemeKind scheme,
    const analysis::ProbWcrtOptions& options) {
  auto setup = std::make_unique<ProbSetup>();
  setup->config = config;
  setup->config.trace = nullptr;  // the analytic pass never records
  const core::ExperimentConfig& c = setup->config;
  const fault::SolverOptions solver = core::solver_options(c);

  analysis::ProbWcrtInput& in = setup->input;
  in.cluster = &c.cluster;
  in.statics = &c.statics;
  in.fault_model = c.fault_model;
  in.fault_model.ber = c.ber;  // single-knob rule (run_experiment_with)
  in.rho = solver.rho;
  in.u = c.u;
  in.options = options;

  switch (scheme) {
    case core::SchemeKind::kCoEfficient:
      setup->plan = fault::solve_differentiated(c.statics, solver);
      in.plan = &setup->plan;
      in.discipline = analysis::ProbRetxModel::kPlannedSerial;
      break;
    case core::SchemeKind::kFspec:
      in.rounds = core::fspec_rounds(c.statics, solver);
      in.discipline = analysis::ProbRetxModel::kMirroredRounds;
      break;
    case core::SchemeKind::kHosa:
      in.discipline = analysis::ProbRetxModel::kMirroredSingle;
      break;
  }
  try {
    setup->table = sched::StaticScheduleTable::build(
        c.statics, c.cluster, core::table_options(scheme));
    in.table = &*setup->table;
  } catch (const std::exception& e) {
    // Unschedulable under these options: keep the one-cycle r0 bound.
    // Lint reports the failure; here it only costs the envelope some
    // tightness.
    setup->table_error = e.what();
  }
  if (!c.dynamics.messages().empty()) {
    setup->has_dynamics = true;
    // The dynamic pass shares every envelope input with the static one.
    static_cast<analysis::EnvelopeInput&>(setup->dyn_input) = in;
    setup->dyn_input.dynamics = &c.dynamics;
  }
  return setup;
}

namespace {

/// Per-message P(miss) edges weighted by release rate (1/T_z).
template <class Messages>
std::pair<double, double> rate_weighted_miss_ratio(const Messages& messages) {
  double weight = 0.0;
  double lower = 0.0;
  double upper = 0.0;
  for (const analysis::MessageEnvelope& mp : messages) {
    if (mp.period <= sim::Time::zero()) continue;
    const double w = 1.0 / static_cast<double>(mp.period.ns());
    weight += w;
    lower += w * mp.p_miss_lower;
    upper += w * mp.p_miss_upper;
  }
  if (weight <= 0.0) return {0.0, 0.0};
  return {lower / weight, upper / weight};
}

}  // namespace

std::pair<double, double> envelope_miss_ratio(
    const analysis::ProbWcrtResult& result) {
  return rate_weighted_miss_ratio(result.messages);
}

std::pair<double, double> dyn_envelope_miss_ratio(
    const analysis::DynWcrtResult& result) {
  return rate_weighted_miss_ratio(result.messages);
}

CrossCheckSummary cross_check_prob(const CampaignManifest& manifest,
                                   const std::vector<ResultRow>& rows,
                                   const CrossCheckOptions& options,
                                   analysis::Report& report) {
  CrossCheckSummary summary;
  const ScenarioGenerator generator(manifest.seed, manifest.distribution);
  std::vector<analysis::DivergenceSample> samples;
  std::vector<analysis::DivergenceSample> dyn_samples;
  for (const ResultRow& row : rows) {
    // The analytic model speaks about channel loss on a healthy
    // cluster: structural-fault cells and pre-schema rows (s_released /
    // d_released missing, parsed as 0) are out of scope.
    if (row.status != "ok" || row.structural != "none") continue;
    const bool want_static = row.s_released > 0;
    const bool want_dyn = row.d_released > 0;
    if (want_static) ++summary.eligible;
    if (want_dyn) ++summary.dyn_eligible;
    const bool take_static =
        want_static && samples.size() < options.max_cells;
    const bool take_dyn =
        want_dyn && dyn_samples.size() < options.max_cells;
    if (!take_static && !take_dyn) continue;
    const ScenarioSpec spec = generator.spec(row.cell);
    const auto setup =
        make_prob_setup(generator.config(spec), spec.scheme, options.prob);
    const std::string label = analysis::strformat(
        "cell %" PRId64 " (%s, %s, seed=%" PRIu64 ")", row.cell,
        row.scheme.c_str(), row.fault.c_str(), row.seed);
    if (take_static) {
      const analysis::ProbWcrtResult result =
          analysis::analyze_prob_wcrt(setup->input);
      const auto [lower, upper] = envelope_miss_ratio(result);
      analysis::DivergenceSample sample;
      sample.label = label;
      sample.released = row.s_released;
      sample.missed = row.s_missed;
      sample.p_lower = lower;
      sample.p_upper = upper;
      samples.push_back(std::move(sample));
    }
    if (take_dyn && setup->has_dynamics) {
      const analysis::DynWcrtResult result =
          analysis::analyze_dyn_wcrt(setup->dyn_input);
      const auto [lower, upper] = dyn_envelope_miss_ratio(result);
      analysis::DivergenceSample sample;
      sample.label = label;
      sample.released = row.d_released;
      sample.missed = row.d_missed;
      sample.p_lower = lower;
      sample.p_upper = upper;
      dyn_samples.push_back(std::move(sample));
    }
  }
  summary.checked = samples.size();
  const std::size_t before =
      report.count_rule("analysis.prob-vs-campaign-divergence");
  analysis::check_divergence(samples, report);
  summary.diverged =
      report.count_rule("analysis.prob-vs-campaign-divergence") - before;
  summary.dyn_checked = dyn_samples.size();
  const std::size_t dyn_before =
      report.count_rule("analysis.dyn-vs-campaign-divergence");
  analysis::check_divergence(dyn_samples, report,
                             "analysis.dyn-vs-campaign-divergence");
  summary.dyn_diverged =
      report.count_rule("analysis.dyn-vs-campaign-divergence") - dyn_before;
  return summary;
}

}  // namespace coeff::campaign
