// Golden digests of the schemes' behaviour (DESIGN.md §12). The
// differential suite runs one scheduler on two walks, so a change inside
// SchedulerBase or inside a scheme moves both walks alike and passes it.
// These tests pin what the schemes themselves do: for ten configurations
// × three schemes they compare a digest of RunStats::summary() and a
// digest of the whole trace CSV against values recorded from a known-good
// build. A digest that moves means the schemes' observable behaviour
// moved; re-record only with a record-by-record argument for why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/experiment.hpp"
#include "fault/structural.hpp"
#include "net/workloads.hpp"
#include "sched/criticality.hpp"
#include "sim/random.hpp"
#include "support/differential.hpp"

namespace coeff::core {
namespace {

/// 64-bit FNV-1a of `text`, as 16 hex digits.
std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// The paper's loaded configuration (perfbench's loaded-run): 100
/// synthetic statics, bursty SAE aperiodics, 50 minislots, SIL3 at
/// BER 1e-7, over a shorter window.
ExperimentConfig loaded() {
  ExperimentConfig config;
  config.cluster = paper_cluster_dynamic_suite(50);
  sim::Rng statics_rng(81);
  net::SyntheticStaticOptions statics;
  statics.count = 100;
  config.statics = net::synthetic_static(statics, statics_rng);
  sim::Rng dynamics_rng(82);
  net::SaeAperiodicOptions dynamics;
  dynamics.static_slots = 80;
  dynamics.min_bits = 256;
  dynamics.max_bits = 2000;
  config.dynamics = net::sae_aperiodic(dynamics, dynamics_rng);
  config.arrivals.process = net::ArrivalProcess::kBursty;
  config.arrivals.burst = 3;
  config.sil = fault::Sil::kSil3;
  config.ber = 1e-7;
  config.batch_window = sim::millis(1000);
  config.seed = 83;
  return config;
}

/// BBW statics + SAE aperiodics on the 1 ms application cluster.
ExperimentConfig bbw() {
  ExperimentConfig config;
  config.cluster = paper_cluster_apps();
  config.statics = net::brake_by_wire();
  sim::Rng rng(3);
  net::SaeAperiodicOptions sae;
  sae.static_slots = static_cast<int>(config.cluster.g_number_of_static_slots);
  sae.count = 20;
  config.dynamics = net::sae_aperiodic(sae, rng);
  config.ber = 1e-6;
  config.sil = fault::Sil::kSil3;
  config.batch_window = sim::millis(120);
  config.seed = 11;
  return config;
}

struct Golden {
  const char* summary;  ///< digest of RunStats::summary()
  const char* trace;    ///< digest of trace_csv()
};

/// Runs `config` under each scheme through the production walk and
/// compares both digests with `golden` (CoEfficient, FSPEC, HOSA).
void expect_golden(const ExperimentConfig& config, const Golden (&golden)[3]) {
  const SchemeKind schemes[] = {SchemeKind::kCoEfficient, SchemeKind::kFspec,
                                SchemeKind::kHosa};
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(to_string(schemes[i]));
    const WalkRun run = run_production(config, schemes[i]);
    EXPECT_GT(run.trace.records().size(), 0u);
    EXPECT_EQ(digest(run.result.run.summary()), golden[i].summary);
    EXPECT_EQ(digest(run.csv), golden[i].trace);
  }
}

TEST(WalkGoldenTest, Loaded) {
  expect_golden(loaded(), {{"048e044b819b6dd5", "955071d2693ef31d"},
                           {"c9c9354d3f39d8a0", "b5d5387ffc149c54"},
                           {"e4b09c5f888527c9", "c0eb7f7c69ec2676"}});
}

// In the two voting cases CoEfficient's trace digest also pins the
// sweep's order: the vote_resolved records one sweep emits at one
// timestamp come out in ascending instance-key order.
TEST(WalkGoldenTest, LoadedWithVotingAtHighBer) {
  ExperimentConfig config = loaded();
  config.ber = 1e-5;
  config.vote_replicas = 3;
  expect_golden(config, {{"01191482c3b7f78d", "2626b02314dbe6bf"},
                         {"296a68a3c8a1dae2", "a939a2de95fcd977"},
                         {"0bd20c001c1dadce", "6d4625c7f709159c"}});
}

TEST(WalkGoldenTest, LoadedWithoutSlackStealing) {
  ExperimentConfig config = loaded();
  config.ablation_no_slack = true;
  expect_golden(config, {{"758ac5ec12f99233", "06cfe992ffa928f4"},
                         {"c9c9354d3f39d8a0", "b5d5387ffc149c54"},
                         {"e4b09c5f888527c9", "c0eb7f7c69ec2676"}});
}

TEST(WalkGoldenTest, LoadedDrain) {
  ExperimentConfig config = loaded();
  config.drain_batch = true;
  expect_golden(config, {{"048e044b819b6dd5", "955071d2693ef31d"},
                         {"dffb19a94ed32a38", "30764f85415c164c"},
                         {"78b3f78cec640419", "9eb7c4f7eb8f1240"}});
}

TEST(WalkGoldenTest, BbwStructuralFaultsWithVoting) {
  ExperimentConfig config = bbw();
  config.structural.crashes.push_back(
      {units::NodeId{1}, sim::millis(10), sim::millis(30)});
  config.structural.blackouts.push_back(
      {flexray::ChannelId::kA, sim::millis(5), sim::millis(20)});
  fault::BabbleWindow babble;
  babble.babbler = units::NodeId{2};
  babble.slot = units::SlotId{8};
  babble.channel = flexray::ChannelId::kB;
  babble.at = sim::millis(8);
  babble.until = sim::millis(12);
  config.structural.babbles.push_back(babble);
  fault::DriftWindow drift;
  drift.node = units::NodeId{3};
  drift.at = sim::millis(6);
  drift.until = sim::millis(24);
  config.structural.drifts.push_back(drift);
  config.vote_replicas = 3;
  expect_golden(config, {{"333429dd78e86471", "edd21c5659099878"},
                         {"61b0cca91bbda901", "78c4b75e24045b38"},
                         {"153f929124e7e6af", "423eceaec491569c"}});
}

TEST(WalkGoldenTest, BbwMonitorModePolicyAndSilentNodes) {
  ExperimentConfig config = bbw();
  config.batch_window = sim::millis(300);
  config.ber = 1e-7;
  config.ber_step_at = sim::millis(60);
  config.ber_step = 2e-5;
  config.ber_step2_at = sim::millis(180);
  config.ber_step2 = 1e-7;
  config.enable_monitor = true;
  config.monitor.window_cycles = 50;
  config.monitor.min_window_frames = 200;
  config.mode_policy = *sched::parse_mode_policy("aggressive,window=400");
  config.silent_node_detection = true;
  config.structural.crashes.push_back(
      {units::NodeId{2}, sim::millis(40), sim::millis(90)});
  expect_golden(config, {{"abb4ae55379aef70", "3a6659f78429ee21"},
                         {"3a1c9e449f5500d9", "11011fa653fc9ad9"},
                         {"d8816d07c0ef2c30", "ce0475b2688cc51b"}});
}

// CoEfficient's channel-B gate in dynamic_slot and dynamic_next_frame
// (the single-channel ablation), under the uniform plan.
TEST(WalkGoldenTest, LoadedSingleChannelUniformPlan) {
  ExperimentConfig config = loaded();
  config.ablation_single_channel = true;
  config.ablation_uniform_plan = true;
  expect_golden(config, {{"c5b1e107414a8bad", "f2686e36713e2307"},
                         {"c9c9354d3f39d8a0", "b5d5387ffc149c54"},
                         {"e4b09c5f888527c9", "c0eb7f7c69ec2676"}});
}

// CoEfficient's outcome tally feeds the energy meter.
TEST(WalkGoldenTest, LoadedWithPower) {
  ExperimentConfig config = loaded();
  config.power = true;
  expect_golden(config, {{"6fe4ad982d526281", "955071d2693ef31d"},
                         {"c9c9354d3f39d8a0", "b5d5387ffc149c54"},
                         {"e4b09c5f888527c9", "c0eb7f7c69ec2676"}});
}

// Channel B dark across twenty dynamic segments: FSPEC's and HOSA's
// mirrors are clocked into a dark wire, CoEfficient's B gate holds its
// queue.
TEST(WalkGoldenTest, LoadedChannelBBlackout) {
  ExperimentConfig config = loaded();
  config.structural.blackouts.push_back(
      {flexray::ChannelId::kB, sim::millis(200), sim::millis(300)});
  expect_golden(config, {{"37f10c2942bd3911", "2e5986589f36e93a"},
                         {"9e3947ab11eab5fd", "442c1942fece9f91"},
                         {"b8ba58ba5b28e6ed", "369cd915f11db262"}});
}

// ρ is out of reach at one copy per message and BER 1e-4: every solver
// returns its best plan, flagged degraded, and CoEfficient sheds its
// dynamic load.
TEST(WalkGoldenTest, BbwUnreachablePlanDegrades) {
  ExperimentConfig config = bbw();
  config.ber = 1e-4;
  config.max_copies = 1;
  expect_golden(config, {{"d55d81200970ee22", "513677398616c0ae"},
                         {"be3beac0a9cc264d", "92ec93ed2bed9bd0"},
                         {"f17836bc8e635c64", "d9b2d3b62dcaa663"}});
  // At one copy per message the uniform plan is the differentiated one,
  // reached through solve_uniform's degrade branch.
  config.ablation_uniform_plan = true;
  expect_golden(config, {{"d55d81200970ee22", "513677398616c0ae"},
                         {"be3beac0a9cc264d", "92ec93ed2bed9bd0"},
                         {"f17836bc8e635c64", "d9b2d3b62dcaa663"}});
}

}  // namespace
}  // namespace coeff::core
