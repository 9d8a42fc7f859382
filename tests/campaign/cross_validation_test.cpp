// Cross-validation acceptance suite (DESIGN.md §14 + §15): for the full
// scheme x fault-model cross (3 x 3 = 9 seeded cells), the simulated
// static-segment miss ratio must fall inside the analytic P(miss)
// envelope [lower - slack, upper + slack] — and, with each cell now
// carrying a 12-message SAE-style dynamic set, the simulated dynamic
// miss ratio must fall inside the DynWcrt minislot-contention envelope
// the same way. A divergence here means a verifier or the simulator
// drifted — exactly what rules analysis.prob-vs-campaign-divergence and
// analysis.dyn-vs-campaign-divergence exist to catch.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "analysis/dyn_wcrt.hpp"
#include "analysis/prob_wcrt.hpp"
#include "campaign/cross_check.hpp"
#include "campaign/scenario.hpp"
#include "core/experiment.hpp"
#include "net/workloads.hpp"

namespace coeff::campaign {
namespace {

struct Cell {
  core::SchemeKind scheme;
  fault::FaultModelKind fault;
  std::uint64_t seed;
};

ScenarioSpec make_spec(const Cell& cell, std::int64_t index) {
  ScenarioSpec spec;
  spec.cell = index;
  spec.seed = cell.seed;
  spec.scheme = cell.scheme;
  spec.nodes = 8;
  spec.num_statics = 12;
  spec.num_dynamics = 12;
  spec.utilization = 0.35;
  spec.window_ms = 200;
  spec.fault_model.kind = cell.fault;
  spec.fault_model.ber = 1e-6;
  spec.structural = StructuralKind::kNone;
  return spec;
}

TEST(CrossValidation, SimulatedMissRatioInsideAnalyticEnvelope) {
  const std::vector<core::SchemeKind> schemes = {
      core::SchemeKind::kCoEfficient, core::SchemeKind::kFspec,
      core::SchemeKind::kHosa};
  // Each model keeps its column of the former 3 x 4 grid (column 1 held
  // the since-removed iid-counter model), so every cell keeps its index
  // and seed.
  struct Column {
    fault::FaultModelKind fault;
    std::int64_t column;
  };
  const std::vector<Column> faults = {
      {fault::FaultModelKind::kIid, 0},
      {fault::FaultModelKind::kGilbertElliott, 2},
      {fault::FaultModelKind::kCommonMode, 3}};
  constexpr std::int64_t kColumns = 4;

  const ScenarioGenerator generator(20260809, ScenarioDistribution{});
  std::vector<analysis::DivergenceSample> samples;
  std::vector<analysis::DivergenceSample> dyn_samples;
  for (std::size_t row = 0; row < schemes.size(); ++row) {
    const core::SchemeKind scheme = schemes[row];
    for (const auto [fault, column] : faults) {
      const std::int64_t index =
          static_cast<std::int64_t>(row) * kColumns + column;
      const Cell cell{scheme, fault,
                      0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(
                                                  index + 1)};
      const ScenarioSpec spec = make_spec(cell, index);
      const core::ExperimentConfig config = generator.config(spec);
      const core::ExperimentResult measured =
          core::run_experiment(config, spec.scheme);
      ASSERT_GT(measured.run.statics.released, 0)
          << scheme_tag(scheme) << "/" << fault::to_string(fault);
      ASSERT_GT(measured.run.dynamics.released, 0)
          << scheme_tag(scheme) << "/" << fault::to_string(fault);

      const auto setup =
          make_prob_setup(config, spec.scheme, analysis::ProbWcrtOptions{});
      const analysis::ProbWcrtResult analytic =
          analysis::analyze_prob_wcrt(setup->input);
      const auto [lower, upper] = envelope_miss_ratio(analytic);

      const std::string label = std::string(scheme_tag(scheme)) + "/" +
                                fault::to_string(fault);
      analysis::DivergenceSample sample;
      sample.label = label;
      sample.released = measured.run.statics.released;
      sample.missed = measured.run.statics.missed;
      sample.p_lower = lower;
      sample.p_upper = upper;
      samples.push_back(std::move(sample));

      // Dynamic-segment leg of the same cell: the measured FTDMA miss
      // ratio against the DynWcrt minislot-contention envelope.
      ASSERT_TRUE(setup->has_dynamics) << label;
      const analysis::DynWcrtResult dyn_analytic =
          analysis::analyze_dyn_wcrt(setup->dyn_input);
      const auto [dyn_lower, dyn_upper] = dyn_envelope_miss_ratio(dyn_analytic);
      analysis::DivergenceSample dyn_sample;
      dyn_sample.label = label + " (dynamic)";
      dyn_sample.released = measured.run.dynamics.released;
      dyn_sample.missed = measured.run.dynamics.missed;
      dyn_sample.p_lower = dyn_lower;
      dyn_sample.p_upper = dyn_upper;
      dyn_samples.push_back(std::move(dyn_sample));
    }
  }
  ASSERT_EQ(samples.size(), 9u);
  ASSERT_EQ(dyn_samples.size(), 9u);

  analysis::Report report;
  analysis::check_divergence(samples, report);
  analysis::check_divergence(dyn_samples, report,
                             "analysis.dyn-vs-campaign-divergence");
  EXPECT_TRUE(report.empty()) << report.render_text();
}

// The envelope claim must hold on the shipped paper workloads too —
// including bbw, whose boundary-crossing class-A placements make the
// simulator lose instances deterministically (the analytic upper edge
// accounts for exactly that).
TEST(CrossValidation, PaperWorkloadsInsideEnvelope) {
  std::vector<analysis::DivergenceSample> samples;
  std::vector<analysis::DivergenceSample> dyn_samples;
  for (const char* workload : {"bbw", "acc"}) {
    core::ExperimentConfig config;
    config.cluster = core::paper_cluster_apps(25);
    config.statics = std::string(workload) == "bbw" ? net::brake_by_wire()
                                                    : net::adaptive_cruise();
    // The shipped SAE aperiodic mix rides the dynamic segment of both
    // paper workloads (same construction as coeffctl's default).
    sim::Rng rng(0x5DEECE66DULL);
    net::SaeAperiodicOptions sae;
    sae.static_slots =
        static_cast<int>(config.cluster.g_number_of_static_slots);
    config.dynamics = net::sae_aperiodic(sae, rng);
    config.batch_window = sim::millis(200);
    config.ber = 1e-7;
    config.fault_model.ber = 1e-7;
    const core::ExperimentResult measured =
        core::run_experiment(config, core::SchemeKind::kCoEfficient);
    ASSERT_GT(measured.run.statics.released, 0) << workload;
    ASSERT_GT(measured.run.dynamics.released, 0) << workload;

    const auto setup = make_prob_setup(config, core::SchemeKind::kCoEfficient,
                                       analysis::ProbWcrtOptions{});
    const analysis::ProbWcrtResult analytic =
        analysis::analyze_prob_wcrt(setup->input);
    const auto [lower, upper] = envelope_miss_ratio(analytic);
    analysis::DivergenceSample sample;
    sample.label = workload;
    sample.released = measured.run.statics.released;
    sample.missed = measured.run.statics.missed;
    sample.p_lower = lower;
    sample.p_upper = upper;
    samples.push_back(std::move(sample));

    ASSERT_TRUE(setup->has_dynamics) << workload;
    const analysis::DynWcrtResult dyn_analytic =
        analysis::analyze_dyn_wcrt(setup->dyn_input);
    const auto [dyn_lower, dyn_upper] = dyn_envelope_miss_ratio(dyn_analytic);
    analysis::DivergenceSample dyn_sample;
    dyn_sample.label = std::string(workload) + " (dynamic)";
    dyn_sample.released = measured.run.dynamics.released;
    dyn_sample.missed = measured.run.dynamics.missed;
    dyn_sample.p_lower = dyn_lower;
    dyn_sample.p_upper = dyn_upper;
    dyn_samples.push_back(std::move(dyn_sample));
  }
  analysis::Report report;
  analysis::check_divergence(samples, report);
  analysis::check_divergence(dyn_samples, report,
                             "analysis.dyn-vs-campaign-divergence");
  EXPECT_TRUE(report.empty()) << report.render_text();
}

}  // namespace
}  // namespace coeff::campaign
