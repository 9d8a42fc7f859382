// Structural-fault acceptance: a scheduled single-channel blackout plus
// one node crash/restart must leave CoEfficient's static segment with
// zero deadline misses (dual-channel failover + membership re-planning),
// while FSPEC's miss ratio rises; the whole history is deterministic per
// seed and the recorded trace survives the structural linter rules.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/trace_lint.hpp"
#include "core/experiment.hpp"
#include "core/fspec.hpp"
#include "core/sweep.hpp"
#include "fault/fault_model.hpp"
#include "fault/structural.hpp"
#include "flexray/cluster.hpp"
#include "net/workloads.hpp"
#include "sim/trace.hpp"

namespace coeff::core {
namespace {

using flexray::ChannelId;

/// Four nodes, one 400-bit static message each, period = deadline =
/// one 1 ms cycle — every node is expected in every cycle, so a crash
/// is visible immediately and a failover must land within the deadline.
net::MessageSet four_node_statics() {
  net::MessageSet set;
  for (int n = 0; n < 4; ++n) {
    net::Message m;
    m.id = n + 1;
    m.node = n;
    m.kind = net::MessageKind::kStatic;
    m.period = sim::millis(1);
    m.deadline = sim::millis(1);
    m.size_bits = 400;
    set.add(m);
  }
  return set;
}

flexray::ClusterConfig four_node_cluster() {
  flexray::ClusterConfig cfg;
  cfg.g_macro_per_cycle = units::Macroticks{1000};
  cfg.g_number_of_static_slots = 6;
  cfg.gd_static_slot = units::Macroticks{50};
  cfg.g_number_of_minislots = 20;
  cfg.bus_bit_rate = 50'000'000;
  cfg.num_nodes = 4;
  return cfg;
}

/// Blackout of channel A over cycles [5, 20), node 1 down over
/// cycles [10, 30); the two faults overlap during [10, 20).
fault::StructuralFaultConfig acceptance_faults() {
  fault::StructuralFaultConfig structural;
  structural.blackouts.push_back(
      {ChannelId::kA, sim::millis(5), sim::millis(20)});
  structural.crashes.push_back(
      {units::NodeId{1}, sim::millis(10), sim::millis(30)});
  return structural;
}

ExperimentConfig acceptance_config(double ber) {
  ExperimentConfig config;
  config.cluster = four_node_cluster();
  config.statics = four_node_statics();
  config.ber = ber;
  config.batch_window = sim::millis(50);
  config.structural = acceptance_faults();
  config.seed = 7;
  return config;
}

TEST(StructuralFaultTest, CoEfficientRidesOutBlackoutAndCrash) {
  const auto result = run_experiment(acceptance_config(0.0),
                                     SchemeKind::kCoEfficient);
  ASSERT_TRUE(result.drained);

  // The headline guarantee: no live producer misses a static deadline.
  EXPECT_EQ(result.run.statics.missed, 0);
  EXPECT_GT(result.run.statics.delivered, 0);

  // The dark home channel was survived by re-homing onto channel B...
  EXPECT_GT(result.run.failovers, 0);
  EXPECT_GT(result.run.failover_latency.count(), 0);
  // ...not by clocking frames into the dead wire.
  EXPECT_EQ(result.run.frames_lost, 0);

  // The crashed node's instances are availability losses, not
  // scheduling misses.
  EXPECT_GT(result.run.statics.source_lost, 0);

  // Structural bookkeeping: one crash, one reintegration, one outage,
  // and a membership re-plan on each edge of the crash window.
  EXPECT_EQ(result.run.node_crashes, 1);
  EXPECT_EQ(result.run.node_restarts, 1);
  EXPECT_EQ(result.run.channel_outages, 1);
  EXPECT_EQ(result.run.channel_down_cycles, 15);
  EXPECT_EQ(result.run.membership_replans, 2);
}

TEST(StructuralFaultTest, FspecMissRatioRisesUnderBlackout) {
  // BER high enough that single-channel operation visibly hurts
  // (~33% frame-corruption odds on a 400-bit frame).
  auto blackout = acceptance_config(1e-3);
  blackout.structural.crashes.clear();  // isolate the channel fault
  auto clean = blackout;
  clean.structural = {};

  const auto dark = run_experiment(blackout, SchemeKind::kFspec);
  const auto base = run_experiment(clean, SchemeKind::kFspec);

  // FSPEC drains its owed channel-A mirrors into the dead wire and
  // pays for it in deadline misses.
  EXPECT_GT(dark.run.frames_lost, 0);
  EXPECT_GT(dark.run.statics.missed, base.run.statics.missed);
  EXPECT_GT(dark.run.statics.miss_ratio(), base.run.statics.miss_ratio());
}

TEST(StructuralFaultTest, CoEfficientBeatsFspecUnderStructuralFaults) {
  auto config = acceptance_config(1e-3);
  // Give the static segment idle headroom: CoEfficient's advantage is
  // reusing idle slots as retransmission slack, which a fully-packed
  // 6-slot segment cannot show.
  config.cluster.g_number_of_static_slots = 12;
  const auto coeff = run_experiment(config, SchemeKind::kCoEfficient);
  const auto fspec = run_experiment(config, SchemeKind::kFspec);
  EXPECT_LT(coeff.run.statics.miss_ratio(), fspec.run.statics.miss_ratio());
}

TEST(StructuralFaultTest, StructuralHistoryIsDeterministicPerSeed) {
  const auto config = acceptance_config(1e-3);
  const auto a = run_experiment(config, SchemeKind::kCoEfficient);
  const auto b = run_experiment(config, SchemeKind::kCoEfficient);
  EXPECT_EQ(a.run.summary(), b.run.summary());
}

TEST(StructuralFaultTest, StochasticCrashesAreDeterministicPerSeed) {
  auto config = acceptance_config(1e-4);
  config.structural = {};
  config.structural.stochastic_crashes.crashes_per_second = 100.0;
  config.structural.stochastic_crashes.mean_time_to_repair = sim::millis(5);
  config.structural.stochastic_crashes.horizon = sim::millis(50);
  config.structural.stochastic_crashes.num_nodes = 4;

  const auto a = run_experiment(config, SchemeKind::kCoEfficient);
  const auto b = run_experiment(config, SchemeKind::kCoEfficient);
  EXPECT_GT(a.run.node_crashes, 0);
  EXPECT_EQ(a.run.summary(), b.run.summary());

  auto reseeded = config;
  reseeded.seed = 8;
  const auto c = run_experiment(reseeded, SchemeKind::kCoEfficient);
  EXPECT_NE(a.run.summary(), c.run.summary());
}

TEST(StructuralFaultTest, TraceSurvivesStructuralLinterRules) {
  sim::Trace trace;
  auto config = acceptance_config(0.0);
  config.trace = &trace;
  const auto result = run_experiment(config, SchemeKind::kCoEfficient);
  ASSERT_TRUE(result.drained);

  // The structural story actually reached the trace.
  EXPECT_EQ(trace.count(sim::TraceKind::kNodeCrash), 1u);
  EXPECT_EQ(trace.count(sim::TraceKind::kNodeRestart), 1u);
  EXPECT_EQ(trace.count(sim::TraceKind::kChannelDown), 1u);
  EXPECT_EQ(trace.count(sim::TraceKind::kChannelUp), 1u);
  EXPECT_GT(trace.count(sim::TraceKind::kFailover), 0u);

  analysis::TraceLintInput input;
  input.trace = &trace;
  input.cluster = &config.cluster;
  input.discipline = analysis::RetxDiscipline::kPlanned;
  const auto report = analysis::lint_trace(input);
  EXPECT_EQ(report.count(analysis::Severity::kError), 0u)
      << report.render_text();
}

// A blackout, a crash and a monitor re-plan after a BER step, on the
// application cluster. CoEfficient stages each static release with the
// k_z of the plan active when the release is staged, so every release a
// full cycle after the last swap carries the final plan's k_z. Every
// scheme's trace lints clean.
TEST(StructuralFaultTest, StagedCopiesFollowTheLivePlan) {
  ExperimentConfig config;
  config.cluster = paper_cluster_apps(25);
  config.statics = net::brake_by_wire().merged_with(net::adaptive_cruise());
  config.batch_window = sim::millis(100);
  config.structural.blackouts.push_back(
      {ChannelId::kA, sim::millis(5), sim::millis(20)});
  config.structural.crashes.push_back(
      {units::NodeId{1}, sim::millis(10), sim::millis(30)});
  config.ber_step_at = sim::millis(40);
  config.ber_step = 2e-5;
  config.enable_monitor = true;
  const struct {
    SchemeKind scheme;
    analysis::RetxDiscipline discipline;
  } cases[] = {
      {SchemeKind::kCoEfficient, analysis::RetxDiscipline::kPlanned},
      {SchemeKind::kFspec, analysis::RetxDiscipline::kRounds},
      {SchemeKind::kHosa, analysis::RetxDiscipline::kMirrored},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(to_string(c.scheme));
    sim::Trace trace;
    config.trace = &trace;
    const auto result = run_experiment(config, c.scheme);

    analysis::TraceLintInput input;
    input.trace = &trace;
    input.cluster = &config.cluster;
    input.discipline = c.discipline;
    const auto report = analysis::lint_trace(input);
    EXPECT_EQ(report.count(analysis::Severity::kError), 0u)
        << report.render_text();
    if (c.scheme != SchemeKind::kCoEfficient) continue;

    // Node 1 is back by the end, so the final plan covers every static.
    ASSERT_EQ(result.final_plan.copies.size(), config.statics.size());
    std::map<std::int64_t, int> final_kz;  // by message id
    for (std::size_t z = 0; z < config.statics.size(); ++z) {
      final_kz[config.statics[z].id] = result.final_plan.copies[z];
    }
    sim::Time last_swap = sim::Time::max();
    for (const auto& r : trace.records()) {
      if (r.kind == sim::TraceKind::kPlanSwap) last_swap = r.at;
    }
    ASSERT_NE(last_swap, sim::Time::max());
    const sim::Time settled = last_swap + config.cluster.cycle_duration();
    int checked = 0;
    for (const auto& r : trace.records()) {
      if (r.kind != sim::TraceKind::kRetransmissionScheduled ||
          r.at < settled) {
        continue;
      }
      ASSERT_EQ(final_kz.count(r.a), 1u) << "message " << r.a;
      EXPECT_EQ(r.c, final_kz[r.a])
          << "message " << r.a << " released at " << sim::to_string(r.at);
      ++checked;
    }
    EXPECT_GT(checked, 0);
  }
}

TEST(StructuralFaultTest, ReplicaVotingAcceptsCleanRuns) {
  auto config = acceptance_config(0.0);
  config.structural = {};
  config.vote_replicas = 3;
  const auto result = run_experiment(config, SchemeKind::kCoEfficient);
  ASSERT_TRUE(result.drained);
  EXPECT_GT(result.run.votes_accepted, 0);
  EXPECT_EQ(result.run.votes_rejected, 0);
  EXPECT_EQ(result.run.statics.missed, 0);
  // k-replica voting sends at least k copies of every accepted instance.
  EXPECT_GE(result.run.statics.copies_sent, 3 * result.run.votes_accepted);
}

TEST(StructuralFaultTest, ReplicaVotingRejectsPoisonedChannel) {
  // At BER 5e-2 a 400-bit frame is corrupted with near certainty: no
  // majority of clean replicas can form and nothing may be accepted.
  auto config = acceptance_config(5e-2);
  config.structural = {};
  config.vote_replicas = 3;
  const auto result = run_experiment(config, SchemeKind::kCoEfficient);
  EXPECT_GT(result.run.votes_rejected, 0);
  EXPECT_EQ(result.run.votes_accepted, 0);
  EXPECT_EQ(result.run.statics.delivered, 0);
}

// --- Burst / common-mode physics x structural faults -------------------
//
// The fault models promise an independent verdict stream per channel.
// Blacking out channel A must therefore leave channel B's verdict
// history bit-identical: the surviving channel's physics cannot be
// perturbed by the dead one. FSPEC mirrors unconditionally, so its
// channel-B schedule is the same with and without the blackout.

class SurvivingChannelTest : public ::testing::Test {
 protected:
  /// What one run leaves on each channel: the ChannelStats tally and
  /// the verdicts drawn there, counted by wrapping the CorruptionFn.
  struct Tally {
    std::array<flexray::ChannelStats, flexray::kNumChannels> stats;
    std::array<std::int64_t, flexray::kNumChannels> verdicts{};
  };

  /// Runs 40 cycles of FSPEC under `model`, optionally with a channel-A
  /// blackout over cycles [5, 25).
  Tally run(fault::FaultModel& model, bool blackout) {
    Tally tally;
    FspecScheduler sched(four_node_cluster(), four_node_statics(), {},
                         sim::millis(40), {});
    const flexray::CorruptionFn verdict = model.as_corruption_fn();
    flexray::Cluster cluster(
        four_node_cluster(), sched,
        [&](const flexray::TxRequest& req, ChannelId channel,
            sim::Time start) {
          ++tally.verdicts[static_cast<std::size_t>(channel)];
          return verdict(req, channel, start);
        },
        nullptr);
    fault::StructuralFaultConfig structural;
    std::unique_ptr<fault::NodeFaultModel> provider;
    if (blackout) {
      structural.blackouts.push_back(
          {ChannelId::kA, sim::millis(5), sim::millis(25)});
      provider = std::make_unique<fault::NodeFaultModel>(
          structural, four_node_cluster().num_nodes, 1);
      cluster.set_fault_provider(provider.get());
    }
    cluster.run_cycles(40);
    for (const ChannelId id : {ChannelId::kA, ChannelId::kB}) {
      tally.stats[static_cast<std::size_t>(id)] = cluster.channel(id).stats();
      // ChannelStats is the one per-channel verdict tally: the Cluster
      // asks the hook exactly once per frame it puts on the wire.
      EXPECT_EQ(tally.stats[static_cast<std::size_t>(id)].frames,
                tally.verdicts[static_cast<std::size_t>(id)])
          << "channel " << flexray::to_string(id);
    }
    return tally;
  }

  /// The surviving channel B's verdict history must be unchanged by the
  /// blackout, and the dead channel A must really have drawn fewer.
  static void expect_b_unperturbed(const Tally& clean, const Tally& dark) {
    const auto a = static_cast<std::size_t>(ChannelId::kA);
    const auto b = static_cast<std::size_t>(ChannelId::kB);
    EXPECT_GT(clean.stats[b].frames, 0);
    EXPECT_EQ(dark.stats[b].frames, clean.stats[b].frames);
    EXPECT_EQ(dark.stats[b].corrupted_frames, clean.stats[b].corrupted_frames);
    EXPECT_LT(dark.stats[a].frames, clean.stats[a].frames);
  }
};

TEST_F(SurvivingChannelTest, GilbertElliottStreamUnperturbedByBlackout) {
  fault::GilbertElliottParams params;
  params.p_good_to_bad = 0.05;
  params.p_bad_to_good = 0.2;
  params.ber_good = 1e-6;
  params.ber_bad = 2e-3;

  fault::GilbertElliottModel clean(params, 3);
  fault::GilbertElliottModel dark(params, 3);
  expect_b_unperturbed(run(clean, /*blackout=*/false),
                       run(dark, /*blackout=*/true));
}

TEST_F(SurvivingChannelTest, CommonModeStreamUnperturbedByBlackout) {
  fault::CommonModeModel clean(2e-3, 0.5, 3);
  fault::CommonModeModel dark(2e-3, 0.5, 3);
  expect_b_unperturbed(run(clean, /*blackout=*/false),
                       run(dark, /*blackout=*/true));
}

// --- Sweep determinism under structural faults -------------------------

TEST(StructuralFaultTest, SweepJobsInvariantWithStructuralFaults) {
  std::vector<SweepCell> cells;
  for (auto scheme : {SchemeKind::kCoEfficient, SchemeKind::kFspec}) {
    for (std::uint64_t seed : {7ULL, 8ULL, 9ULL}) {
      SweepCell cell;
      cell.config = acceptance_config(1e-3);
      cell.config.seed = seed;
      cell.scheme = scheme;
      cell.label = std::string(to_string(scheme)) + "/seed=" +
                   std::to_string(seed);
      cells.push_back(std::move(cell));
    }
  }

  const auto serial = SweepRunner(1).run(cells);
  const auto parallel = SweepRunner(4).run(cells);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].label, parallel.cells[i].label);
    EXPECT_EQ(serial.cells[i].result.run.summary(),
              parallel.cells[i].result.run.summary())
        << serial.cells[i].label;
  }
}

}  // namespace
}  // namespace coeff::core
