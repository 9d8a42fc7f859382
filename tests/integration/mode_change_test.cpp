// Acceptance scenario for the mixed-criticality mode-change protocol
// (DESIGN.md §16): a BER burst (step up at 100 ms, back down at 250 ms)
// drives NORMAL -> DEGRADED within the monitor window, low-criticality
// dynamics are shed at cycle boundaries while the safety statics keep
// their slots, and once the wire calms down the protocol returns to
// NORMAL and matches up the shed backlog in bounded bursts. The whole
// trajectory must be byte-identical between the production walk and the
// slot-by-slot reference walk, and the recorded trace must survive the
// mode-protocol linter rules.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/trace_lint.hpp"
#include "core/experiment.hpp"
#include "net/workloads.hpp"
#include "sched/criticality.hpp"
#include "sim/random.hpp"
#include "sim/trace.hpp"
#include "support/differential.hpp"

namespace coeff::core {
namespace {

/// BBW statics + SAE aperiodics on the 1 ms application cluster. The
/// monitor's re-plan cooldown is parked out of reach so the drift latch
/// feeds the mode machine without a plan swap resetting the ratio
/// mid-burst — the mode trajectory is the thing under test.
ExperimentConfig burst_config(sim::Trace* trace) {
  ExperimentConfig config;
  config.cluster = paper_cluster_apps();
  config.statics = net::brake_by_wire();
  sim::Rng rng(5);
  net::SaeAperiodicOptions sae;
  sae.count = 12;
  config.dynamics = net::sae_aperiodic(sae, rng);
  config.ber = 1e-7;
  config.sil = fault::Sil::kSil3;
  config.batch_window = sim::millis(400);  // 400 cycles at 1 ms/cycle
  config.seed = 17;
  config.ber_step_at = sim::millis(100);
  config.ber_step = 2e-5;
  config.ber_step2_at = sim::millis(250);
  config.ber_step2 = 1e-7;
  config.enable_monitor = true;
  config.monitor.window_cycles = 50;
  config.monitor.min_window_frames = 200;
  config.monitor.trigger_factor = 5.0;
  config.monitor.cooldown_cycles = 1000000;
  config.mode_policy = *sched::parse_mode_policy("aggressive,window=400");
  config.power = true;
  config.trace = trace;
  return config;
}

std::set<int> dynamic_ids(const ExperimentConfig& config) {
  std::set<int> ids;
  for (const auto& m : config.dynamics.messages()) ids.insert(m.id);
  return ids;
}

TEST(ModeChangeTest, BurstDegradesShedsAndMatchesUp) {
  sim::Trace trace;
  const auto config = burst_config(&trace);
  const auto result = run_experiment(config, SchemeKind::kCoEfficient);
  ASSERT_TRUE(result.drained);

  // The burst degraded the cluster and the calm window recovered it:
  // at least one escalation and one step back down, ending in NORMAL.
  EXPECT_GE(result.run.mode_changes, 2);
  EXPECT_EQ(result.run.final_mode, 0);
  EXPECT_GT(result.run.mode_cycles_l1, 0);
  EXPECT_GT(result.run.mode_cycles_normal, 0);

  // First transition: NORMAL -> DEGRADED-L1, at a cycle boundary inside
  // the monitor window after the step at cycle 100.
  std::vector<sim::TraceRecord> changes;
  for (const auto& r : trace.records()) {
    if (r.kind == sim::TraceKind::kModeChange) changes.push_back(r);
  }
  ASSERT_FALSE(changes.empty());
  EXPECT_EQ(changes.front().a, 0);
  EXPECT_EQ(changes.front().b, 1);
  EXPECT_GT(changes.front().c, 100);
  EXPECT_LE(changes.front().c, 100 + config.monitor.window_cycles + 25);

  // Shedding hit only low-criticality dynamics, never the statics.
  EXPECT_GT(result.run.mode_sheds, 0);
  const auto dyn = dynamic_ids(config);
  for (const auto& r : trace.records()) {
    if (r.kind != sim::TraceKind::kShedByMode) continue;
    EXPECT_TRUE(dyn.count(static_cast<int>(r.a)) > 0) << "shed id " << r.a;
    EXPECT_TRUE(r.c == 1 || r.c == 2) << "shed outside degraded mode";
    EXPECT_EQ(r.d, 0) << "shed a non-low message in mode " << r.c;
  }
  // Statics kept flying through the burst.
  EXPECT_GT(result.run.statics.delivered, 0);

  // Match-up: with the window parked at 400 cycles nothing is
  // abandoned, the whole backlog is re-admitted after the recovery
  // window, and the trace agrees with the counters.
  EXPECT_GT(result.run.matchups, 0);
  EXPECT_EQ(result.run.matchup_abandoned, 0);
  EXPECT_EQ(trace.count(sim::TraceKind::kMatchUp),
            static_cast<std::size_t>(result.run.matchups));
  EXPECT_EQ(trace.count(sim::TraceKind::kModeChange),
            static_cast<std::size_t>(result.run.mode_changes));
  EXPECT_EQ(trace.count(sim::TraceKind::kShedByMode),
            static_cast<std::size_t>(result.run.mode_sheds));

  // The energy meter accounted every cycle and sleeping in degraded
  // modes saved something.
  EXPECT_GT(result.run.energy_total_uj, 0.0);
  EXPECT_EQ(result.run.energy_cycles, result.cycles_run);
  EXPECT_GE(result.run.energy_sleep_saved_uj, 0.0);
}

TEST(ModeChangeTest, MediumCriticalityRidesOutL1) {
  // Give two dynamics an explicit medium level: DEGRADED-L1 admits
  // medium (floor = medium) and sheds only the lows; DEGRADED-L2 sheds
  // both. Every shed record must respect the admission floor.
  sim::Trace trace;
  auto config = burst_config(&trace);
  sched::CriticalitySpec spec;
  spec.static_default = net::Criticality::kHigh;
  spec.dynamic_default = net::Criticality::kLow;
  int promoted = 0;
  for (const auto& m : config.dynamics.messages()) {
    if (promoted < 2) {
      spec.overrides.emplace_back(m.id, net::Criticality::kMedium);
      ++promoted;
    }
  }
  ASSERT_EQ(promoted, 2);
  config.statics = sched::with_criticality(config.statics, spec);
  config.dynamics = sched::with_criticality(config.dynamics, spec);
  const auto result = run_experiment(config, SchemeKind::kCoEfficient);
  ASSERT_TRUE(result.drained);
  EXPECT_GT(result.run.mode_sheds, 0);
  for (const auto& r : trace.records()) {
    if (r.kind != sim::TraceKind::kShedByMode) continue;
    if (r.c == 1) {
      EXPECT_EQ(r.d, 0) << "L1 must admit medium criticality";
    } else {
      EXPECT_EQ(r.c, 2);
      EXPECT_LE(r.d, 1) << "high criticality is never shed";
    }
  }
}

TEST(ModeChangeTest, TrajectoryIsByteIdenticalAcrossEngines) {
  const auto config = burst_config(nullptr);
  const auto production = run_production(config, SchemeKind::kCoEfficient);
  const auto reference = run_reference(config, SchemeKind::kCoEfficient);

  EXPECT_EQ(production.csv, reference.csv);
  const ExperimentResult& p = production.result;
  const ExperimentResult& r = reference.result;
  EXPECT_EQ(p.run.summary(), r.run.summary());
  EXPECT_EQ(p.run.mode_changes, r.run.mode_changes);
  EXPECT_EQ(p.run.mode_sheds, r.run.mode_sheds);
  EXPECT_EQ(p.run.matchups, r.run.matchups);
  EXPECT_EQ(p.run.energy_total_uj, r.run.energy_total_uj);
  EXPECT_GT(reference.static_slot_calls, 0);
}

TEST(ModeChangeTest, RecordedTraceSurvivesTheModeLinterRules) {
  sim::Trace trace;
  const auto config = burst_config(&trace);
  const auto result = run_experiment(config, SchemeKind::kCoEfficient);
  ASSERT_TRUE(result.drained);
  ASSERT_GT(trace.count(sim::TraceKind::kModeChange), 0u);
  ASSERT_GT(trace.count(sim::TraceKind::kMatchUp), 0u);

  analysis::TraceLintInput input;
  input.trace = &trace;
  input.cluster = &config.cluster;
  input.discipline = analysis::ProbRetxModel::kPlannedSerial;
  const auto report = analysis::lint_trace(input);
  EXPECT_EQ(report.count(analysis::Severity::kError), 0u)
      << report.render_text();
}

}  // namespace
}  // namespace coeff::core
