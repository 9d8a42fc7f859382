// Dynamic-segment probabilistic verifier (DESIGN.md §15): minislot walk
// geometry (starvation by fit and by pLatestTx cutoff), degraded-plan
// load shedding, the correlation-free blocking bound, envelope ordering,
// lint rules, and the static+dynamic end-to-end class merge.
#include "analysis/dyn_wcrt.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/experiment.hpp"
#include "net/workloads.hpp"

namespace coeff::analysis {
namespace {

net::Message dyn_message(int id, int frame_id, std::int64_t size_bits,
                         sim::Time period) {
  net::Message m;
  m.id = id;
  m.name = "dyn_" + std::to_string(id);
  m.node = 0;
  m.kind = net::MessageKind::kDynamic;
  m.period = period;
  m.deadline = period;
  m.size_bits = size_bits;
  m.frame_id = frame_id;
  return m;
}

DynWcrtInput base_input(const flexray::ClusterConfig& cluster,
                        const net::MessageSet& dynamics,
                        ProbRetxModel discipline) {
  DynWcrtInput input;
  input.cluster = &cluster;
  input.dynamics = &dynamics;
  input.discipline = discipline;
  input.fault_model.kind = fault::FaultModelKind::kIid;
  input.fault_model.ber = 1e-7;
  return input;
}

TEST(DynWcrt, RejectsMalformedInput) {
  const auto cluster = core::paper_cluster_apps(25);
  net::MessageSet dynamics;
  dynamics.add(dyn_message(1, 16, 128, sim::millis(10)));

  DynWcrtInput input = base_input(cluster, dynamics,
                                  ProbRetxModel::kPlannedSerial);
  input.cluster = nullptr;
  EXPECT_THROW((void)analyze_dyn_wcrt(input), std::invalid_argument);

  input = base_input(cluster, dynamics, ProbRetxModel::kPlannedSerial);
  input.max_slips = 0;
  EXPECT_THROW((void)analyze_dyn_wcrt(input), std::invalid_argument);

  // frame_id 15 is a *static* slot on this 15-static-slot cluster.
  net::MessageSet bad;
  bad.add(dyn_message(1, 15, 128, sim::millis(10)));
  input = base_input(cluster, bad, ProbRetxModel::kPlannedSerial);
  EXPECT_THROW((void)analyze_dyn_wcrt(input), std::invalid_argument);
}

TEST(DynWcrt, LightLoadEnvelopeIsOrderedAndUnblocked) {
  const auto cluster = core::paper_cluster_apps(25);
  net::MessageSet dynamics;
  dynamics.add(dyn_message(1, 16, 128, sim::millis(10)));

  const DynWcrtInput input =
      base_input(cluster, dynamics, ProbRetxModel::kPlannedSerial);
  const DynWcrtResult result = analyze_dyn_wcrt(input);
  ASSERT_EQ(result.messages.size(), 1u);
  const DynMessageProb& mp = result.messages[0];
  EXPECT_FALSE(mp.shed);
  EXPECT_FALSE(mp.starved);
  EXPECT_EQ(mp.baseline_offset, 0);
  EXPECT_GT(mp.slack_minislots, 0);
  // Alone in the segment: nothing blocks it, either way of counting.
  EXPECT_EQ(mp.p_blocked_upper, 0.0);
  EXPECT_EQ(mp.p_blocked_nominal, 0.0);
  // Sound, ordered, non-degenerate envelope from the channel alone.
  EXPECT_GT(mp.p_miss_lower, 0.0);
  EXPECT_LE(mp.p_miss_lower, mp.p_miss_upper);
  EXPECT_LT(mp.p_miss_upper, 1e-3);
  EXPECT_LT(mp.response_p999, sim::millis(10));
  EXPECT_LT(mp.nominal_p999, sim::millis(10));
  ASSERT_EQ(result.classes.size(), 1u);
  EXPECT_EQ(result.classes[0].messages, 1);
}

TEST(DynWcrt, GeometricStarvationCollapsesMirroredEnvelopeOnly) {
  // Baseline walk position 24 with need >= 2 of 25 minislots can never
  // start. The mirrored disciplines have no rescue path: [1, 1]. The
  // CoEfficient slack stealer can still serve the queued entry through a
  // stolen static slot, so only its upper edge collapses.
  const auto cluster = core::paper_cluster_apps(25);
  net::MessageSet dynamics;
  dynamics.add(dyn_message(1, 16 + 24, 128, sim::millis(10)));

  const DynWcrtResult mirrored = analyze_dyn_wcrt(
      base_input(cluster, dynamics, ProbRetxModel::kMirroredRounds));
  ASSERT_EQ(mirrored.messages.size(), 1u);
  EXPECT_TRUE(mirrored.messages[0].starved);
  EXPECT_LT(mirrored.messages[0].slack_minislots, 0);
  EXPECT_EQ(mirrored.messages[0].p_miss_upper, 1.0);
  EXPECT_EQ(mirrored.messages[0].p_miss_lower, 1.0);
  EXPECT_EQ(mirrored.messages[0].response_p999, sim::Time::max());

  const DynWcrtResult serial = analyze_dyn_wcrt(
      base_input(cluster, dynamics, ProbRetxModel::kPlannedSerial));
  ASSERT_EQ(serial.messages.size(), 1u);
  EXPECT_TRUE(serial.messages[0].starved);
  EXPECT_EQ(serial.messages[0].p_miss_upper, 1.0);
  EXPECT_LT(serial.messages[0].p_miss_lower, 1.0);
}

TEST(DynWcrt, PLatestTxCutoffStarvesIndependentlyOfFit) {
  // The same frame fits comfortably by space (needs ~2 of 25 minislots)
  // but its baseline walk position lies past an explicit pLatestTx
  // cutoff, so it slips every cycle forever.
  auto cluster = core::paper_cluster_apps(25);
  cluster.p_latest_tx = units::MinislotId{5};
  cluster.validate();
  net::MessageSet dynamics;
  dynamics.add(dyn_message(1, 16 + 10, 128, sim::millis(10)));

  const DynWcrtResult result = analyze_dyn_wcrt(
      base_input(cluster, dynamics, ProbRetxModel::kMirroredSingle));
  ASSERT_EQ(result.messages.size(), 1u);
  EXPECT_TRUE(result.messages[0].starved);
  EXPECT_EQ(result.messages[0].p_miss_upper, 1.0);
  EXPECT_EQ(result.messages[0].p_miss_lower, 1.0);

  // The identical set on the uncut cluster is perfectly schedulable.
  const auto uncut = core::paper_cluster_apps(25);
  const DynWcrtResult fine = analyze_dyn_wcrt(
      base_input(uncut, dynamics, ProbRetxModel::kMirroredSingle));
  EXPECT_FALSE(fine.messages[0].starved);
  EXPECT_LT(fine.messages[0].p_miss_upper, 1e-3);
}

TEST(DynWcrt, DegradedPlanShedsEveryRelease) {
  const auto cluster = core::paper_cluster_apps(25);
  net::MessageSet dynamics;
  dynamics.add(dyn_message(1, 16, 128, sim::millis(10)));
  dynamics.add(dyn_message(2, 17, 128, sim::millis(20)));

  fault::RetransmissionPlan plan;
  plan.degraded = true;
  DynWcrtInput input =
      base_input(cluster, dynamics, ProbRetxModel::kPlannedSerial);
  input.plan = &plan;
  const DynWcrtResult result = analyze_dyn_wcrt(input);
  ASSERT_EQ(result.messages.size(), 2u);
  for (const DynMessageProb& mp : result.messages) {
    EXPECT_TRUE(mp.shed);
    EXPECT_EQ(mp.p_miss_upper, 1.0);
    EXPECT_EQ(mp.p_miss_lower, 1.0);
  }
  const Report report = lint_dyn(input, result);
  EXPECT_TRUE(report.has_errors());
  EXPECT_EQ(report.count_rule("analysis.dyn-starvation"), 2u);
  EXPECT_NE(report.render_text().find("sheds every"), std::string::npos);
}

TEST(DynWcrt, HigherPriorityLoadRaisesTheBlockingBoundInOrder) {
  // Priority is frame id: the first frame sees an empty segment, the
  // last sees everyone else's extra minislots. On a deliberately tight
  // 6-minislot segment the tail frame's Markov bound must activate.
  const auto cluster = core::paper_cluster_apps(6);
  net::MessageSet dynamics;
  dynamics.add(dyn_message(1, 16, 512, sim::millis(2)));
  dynamics.add(dyn_message(2, 17, 512, sim::millis(2)));
  dynamics.add(dyn_message(3, 18, 128, sim::millis(10)));

  const DynWcrtInput input =
      base_input(cluster, dynamics, ProbRetxModel::kPlannedSerial);
  const DynWcrtResult result = analyze_dyn_wcrt(input);
  ASSERT_EQ(result.messages.size(), 3u);
  EXPECT_EQ(result.messages[0].p_blocked_upper, 0.0);
  for (const DynMessageProb& mp : result.messages) {
    EXPECT_FALSE(mp.starved) << mp.name;
    EXPECT_LE(mp.p_miss_lower, mp.p_miss_upper) << mp.name;
    EXPECT_LE(mp.p_blocked_upper, 1.0) << mp.name;
    // The independence model can never exceed the adversarial bound
    // scaled to a single instance's opportunity window.
    EXPECT_LE(mp.p_blocked_nominal, 1.0) << mp.name;
  }
  // The tail frame faces real contention; the head frame does not.
  EXPECT_GT(result.messages[2].p_blocked_upper,
            result.messages[0].p_blocked_upper);
  EXPECT_GT(result.messages[2].p_blocked_nominal, 0.0);
  // Interference distribution is a proper probability over extra slots.
  EXPECT_NEAR(result.interference.total_mass(), 1.0, 1e-9);
}

TEST(DynWcrt, MissExceedsTargetFiresOnlyWithAnHonestTarget) {
  const auto cluster = core::paper_cluster_apps(25);
  net::MessageSet dynamics;
  dynamics.add(dyn_message(1, 16, 512, sim::millis(10)));

  // A 1e-4 BER channel with one dynamic attempt cannot hold a 1-1e-9
  // reliability claim over an hour of 10 ms releases.
  DynWcrtInput input =
      base_input(cluster, dynamics, ProbRetxModel::kPlannedSerial);
  input.fault_model.ber = 1e-4;
  input.rho = 1.0 - 1e-9;
  DynWcrtResult result = analyze_dyn_wcrt(input);
  Report report = lint_dyn(input, result);
  EXPECT_GE(report.count_rule("analysis.dyn-miss-exceeds-target"), 1u);

  // No target, no rule — the envelope is still reported, just not
  // judged against a claim nobody made.
  input.rho = 0.0;
  result = analyze_dyn_wcrt(input);
  report = lint_dyn(input, result);
  EXPECT_EQ(report.count_rule("analysis.dyn-miss-exceeds-target"), 0u);
}

TEST(DynWcrt, DefaultSaeMixOnAppClusterIsAStandingStarvation) {
  // The shipped 30-frame SAE aperiodic mix walks past minislot 24 on
  // the 25-minislot app cluster: the tail frames are geometrically dead
  // and the analyzer must say so (this is the seeded WILL_FAIL workload
  // behind the coeffctl_analyze_dyn_starvation ctest entry).
  const auto cluster = core::paper_cluster_apps(25);
  sim::Rng rng(0x5DEECE66DULL);
  net::SaeAperiodicOptions sae;
  sae.static_slots = static_cast<int>(cluster.g_number_of_static_slots);
  const net::MessageSet dynamics = net::sae_aperiodic(sae, rng);

  const DynWcrtInput input =
      base_input(cluster, dynamics, ProbRetxModel::kPlannedSerial);
  const DynWcrtResult result = analyze_dyn_wcrt(input);
  int starved = 0;
  for (const DynMessageProb& mp : result.messages) starved += mp.starved;
  EXPECT_GT(starved, 0);
  const Report report = lint_dyn(input, result);
  EXPECT_TRUE(report.has_errors());
  EXPECT_GE(report.count_rule("analysis.dyn-starvation"),
            static_cast<std::size_t>(starved > 8 ? 8 : starved));
}

TEST(DynWcrt, MergeClassEnvelopesTakesWorstEdgesAndSumsCounts) {
  std::vector<ClassProb> statics(2);
  statics[0].sae_class = 'A';
  statics[0].messages = 3;
  statics[0].worst_p_miss_upper = 1e-6;
  statics[0].worst_p_miss_lower = 1e-9;
  statics[1].sae_class = 'D';
  statics[1].messages = 5;
  statics[1].worst_p_miss_upper = 1e-4;
  statics[1].worst_p_miss_lower = 1e-7;
  std::vector<ClassProb> dyns(1);
  dyns[0].sae_class = 'D';
  dyns[0].messages = 7;
  dyns[0].worst_p_miss_upper = 0.25;
  dyns[0].worst_p_miss_lower = 1e-9;

  const std::vector<ClassProb> merged = merge_class_envelopes(statics, dyns);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].sae_class, 'A');
  EXPECT_EQ(merged[0].messages, 3);
  EXPECT_EQ(merged[1].sae_class, 'D');
  EXPECT_EQ(merged[1].messages, 12);
  EXPECT_EQ(merged[1].worst_p_miss_upper, 0.25);
  EXPECT_EQ(merged[1].worst_p_miss_lower, 1e-7);

  EXPECT_TRUE(merge_class_envelopes({}, {}).empty());
  EXPECT_EQ(merge_class_envelopes(statics, {}).size(), 2u);
}

TEST(DynWcrt, RenderingsCarryTheEnvelopeAndMarkers) {
  const auto cluster = core::paper_cluster_apps(25);
  net::MessageSet dynamics;
  dynamics.add(dyn_message(1, 16, 128, sim::millis(10)));
  dynamics.add(dyn_message(2, 16 + 24, 128, sim::millis(10)));  // starved

  const DynWcrtInput input =
      base_input(cluster, dynamics, ProbRetxModel::kMirroredRounds);
  const DynWcrtResult result = analyze_dyn_wcrt(input);
  const std::string text = render_dyn_text(input, result);
  EXPECT_NE(text.find("dynamic-segment probabilistic analysis"),
            std::string::npos);
  EXPECT_NE(text.find("[starved]"), std::string::npos);
  const std::string json = render_dyn_json(input, result);
  EXPECT_NE(json.find("\"starved\":true"), std::string::npos);
  EXPECT_NE(json.find("\"p_miss_upper\":"), std::string::npos);

  const std::string merged = render_end_to_end_text(
      merge_class_envelopes({}, result.classes));
  EXPECT_NE(merged.find("end-to-end class"), std::string::npos);
  const std::string merged_json =
      render_class_json(merge_class_envelopes({}, result.classes));
  EXPECT_EQ(merged_json.front(), '[');
  EXPECT_EQ(merged_json.back(), ']');
}

}  // namespace
}  // namespace coeff::analysis
