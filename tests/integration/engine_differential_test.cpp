// Differential acceptance for the cycle walk (DESIGN.md §12): the
// production flexray::Cluster and the slot-by-slot reference walk
// (tests/support/reference_cluster.*) must be observationally identical —
// byte-identical trace CSVs and RunStats — across schemes, fault
// models, structural faults, the online monitor, and sweep parallelism.
// Speed is allowed to differ; behaviour is not.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "fault/structural.hpp"
#include "net/workloads.hpp"
#include "sim/trace.hpp"
#include "support/differential.hpp"

namespace coeff::core {
namespace {

/// The workload shared by the grid: BBW statics + SAE aperiodics on the
/// 1 ms application cluster, hot enough BER that fault verdicts matter.
ExperimentConfig grid_config() {
  ExperimentConfig config;
  config.cluster = paper_cluster_apps();
  config.statics = net::brake_by_wire();
  sim::Rng rng(3);
  net::SaeAperiodicOptions sae;
  sae.static_slots = static_cast<int>(config.cluster.g_number_of_static_slots);
  sae.count = 20;
  config.dynamics = net::sae_aperiodic(sae, rng);
  config.ber = 1e-5;
  config.sil = fault::Sil::kSil3;
  config.batch_window = sim::millis(60);
  config.seed = 11;
  return config;
}

void expect_identical(const WalkRun& production, const WalkRun& reference) {
  // Byte-identical trace CSV is the strongest check: every wire event,
  // verdict, failover and rebuild at the same timestamp with the same
  // tags.
  EXPECT_EQ(production.csv, reference.csv);
  const ExperimentResult& p = production.result;
  const ExperimentResult& r = reference.result;
  EXPECT_EQ(p.run.summary(), r.run.summary());
  EXPECT_EQ(p.run.overall_miss_ratio(), r.run.overall_miss_ratio());
  EXPECT_EQ(p.run.statics.copies_corrupted, r.run.statics.copies_corrupted);
  EXPECT_EQ(p.run.retransmission_copies_sent, r.run.retransmission_copies_sent);
  EXPECT_EQ(p.run.slack_slots_stolen, r.run.slack_slots_stolen);
  EXPECT_EQ(p.run.plan_swaps, r.run.plan_swaps);
  EXPECT_EQ(p.run.failovers, r.run.failovers);
  EXPECT_EQ(p.run.frames_lost, r.run.frames_lost);
  EXPECT_EQ(p.run.membership_replans, r.run.membership_replans);
  EXPECT_EQ(p.run.running_time.ns(), r.run.running_time.ns());
  EXPECT_EQ(p.cycles_run, r.cycles_run);
  EXPECT_EQ(p.drained, r.drained);
  EXPECT_EQ(p.final_plan.copies, r.final_plan.copies);
  // And the comparison must not be vacuous: the reference really walked
  // slot by slot.
  EXPECT_GT(reference.static_slot_calls, 0);
}

TEST(EngineDifferentialTest, SchemeByFaultModelGridIsByteIdentical) {
  for (const auto scheme :
       {SchemeKind::kCoEfficient, SchemeKind::kFspec, SchemeKind::kHosa}) {
    for (const auto kind :
         {fault::FaultModelKind::kIid, fault::FaultModelKind::kGilbertElliott,
          fault::FaultModelKind::kCommonMode}) {
      SCOPED_TRACE(std::string(to_string(scheme)) + " x " +
                   fault::to_string(kind));
      ExperimentConfig config = grid_config();
      config.fault_model.kind = kind;
      config.fault_model.common_fraction = 0.5;
      config.fault_model.gilbert_elliott.p_good_to_bad = 0.02;
      expect_identical(run_production(config, scheme),
                       run_reference(config, scheme));
    }
  }
}

TEST(EngineDifferentialTest, MonitorAndBerStepStayIdentical) {
  ExperimentConfig config = grid_config();
  config.batch_window = sim::millis(200);
  config.ber = 1e-7;
  config.ber_step_at = sim::millis(60);
  config.ber_step = 1e-4;
  config.enable_monitor = true;
  config.monitor.window_cycles = 50;
  config.monitor.min_window_frames = 200;
  config.monitor.cooldown_cycles = 50;
  const auto production = run_production(config, SchemeKind::kCoEfficient);
  expect_identical(production,
                   run_reference(config, SchemeKind::kCoEfficient));
  // The scenario actually re-planned, so the kPlanSwap -> template
  // rebuild path was exercised, not just the steady state.
  EXPECT_GT(production.result.run.plan_swaps, 0);
}

/// Corrupted transmissions in `run` that match `pred(record)`.
template <class Pred>
std::int64_t corrupted_where(const WalkRun& run, Pred pred) {
  std::int64_t n = 0;
  for (const auto& r : run.trace.records()) {
    if (r.kind == sim::TraceKind::kTxCorrupted && pred(r)) ++n;
  }
  return n;
}

// Every structural fault class at once, overlapping: a blackout, a
// crash, a babbling idiot jamming a static slot and a drifting sender
// whose dynamic frames miss the action point. The production walk
// applies babble and drift as per-frame overrides at commit; the
// reference asks the same questions slot by slot.
TEST(EngineDifferentialTest, StructuralFaultsMatchReference) {
  // Channel A is dark over the babble window, so every scheme carries
  // slot 8 on channel B there.
  constexpr units::SlotId kJammedSlot{8};
  constexpr auto kJammedChannel = flexray::ChannelId::kB;
  const sim::Time babble_at = sim::millis(8);
  const sim::Time babble_until = sim::millis(12);
  constexpr units::NodeId kDrifter{3};
  const sim::Time drift_at = sim::millis(6);
  const sim::Time drift_until = sim::millis(24);
  for (const auto scheme :
       {SchemeKind::kCoEfficient, SchemeKind::kFspec, SchemeKind::kHosa}) {
    SCOPED_TRACE(to_string(scheme));
    ExperimentConfig config = grid_config();
    config.ber = 1e-6;
    config.structural.blackouts.push_back(
        {flexray::ChannelId::kA, sim::millis(5), sim::millis(20)});
    config.structural.crashes.push_back(
        {units::NodeId{1}, sim::millis(10), sim::millis(30)});
    fault::BabbleWindow babble;
    babble.babbler = units::NodeId{2};
    babble.slot = kJammedSlot;
    babble.channel = kJammedChannel;
    babble.at = babble_at;
    babble.until = babble_until;
    config.structural.babbles.push_back(babble);
    fault::DriftWindow drift;
    drift.node = kDrifter;
    drift.at = drift_at;
    drift.until = drift_until;
    config.structural.drifts.push_back(drift);
    config.vote_replicas = scheme == SchemeKind::kCoEfficient ? 3 : 0;

    const auto production = run_production(config, scheme);
    const auto reference = run_reference(config, scheme);
    expect_identical(production, reference);

    // The scenario must exercise both wire-level faults in both walks:
    // frames in the jammed (slot, channel) inside the babble window, and
    // dynamic frames of the drifting sender inside the drift window.
    const std::int64_t static_slots = config.cluster.g_number_of_static_slots;
    for (const WalkRun* run : {&production, &reference}) {
      EXPECT_GT(corrupted_where(*run,
                                [&](const sim::TraceRecord& r) {
                                  return r.b == kJammedSlot.value() &&
                                         r.c == static_cast<std::int64_t>(
                                                    kJammedChannel) &&
                                         r.at >= babble_at &&
                                         r.at < babble_until;
                                }),
                0);
      EXPECT_GT(corrupted_where(*run,
                                [&](const sim::TraceRecord& r) {
                                  return r.a == kDrifter.value() &&
                                         r.b > static_slots &&
                                         r.at >= drift_at &&
                                         r.at < drift_until;
                                }),
                0);
    }
  }
}

// Sweep parallelism on top of the production walk: jobs=1 and jobs=4
// must agree with each other and with the reference walk run serially.
TEST(EngineDifferentialTest, SweepJobsOneVsFourMatchAcrossEngines) {
  std::vector<SweepCell> cells;
  for (const auto scheme : {SchemeKind::kCoEfficient, SchemeKind::kFspec}) {
    for (const std::uint64_t seed : {11ULL, 29ULL}) {
      ExperimentConfig config = grid_config();
      config.seed = seed;
      cells.push_back({config, scheme,
                       std::string(to_string(scheme)) +
                           "/seed=" + std::to_string(seed)});
    }
  }
  const SweepReport serial = SweepRunner(1).run(cells);
  const SweepReport parallel = SweepRunner(4).run(cells);
  ASSERT_EQ(serial.cells.size(), cells.size());
  ASSERT_EQ(parallel.cells.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(cells[i].label);
    const WalkRun reference = run_reference(cells[i].config, cells[i].scheme);
    const ExperimentResult& a = serial.cells[i].result;
    const ExperimentResult& b = parallel.cells[i].result;
    const ExperimentResult& r = reference.result;
    EXPECT_EQ(a.run.summary(), b.run.summary());
    EXPECT_EQ(a.run.summary(), r.run.summary());
    EXPECT_EQ(a.cycles_run, b.cycles_run);
    EXPECT_EQ(a.cycles_run, r.cycles_run);
    EXPECT_EQ(a.run.overall_miss_ratio(), r.run.overall_miss_ratio());
    EXPECT_GT(reference.static_slot_calls, 0);
  }
}

}  // namespace
}  // namespace coeff::core
