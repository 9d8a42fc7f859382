// Probabilistic WCRT verifier: engine closed-form checks, the three
// lint rules (seeded violation + clean-workload negative each), the
// primary-liveness / copy-crediting semantics, and the per-rule
// diagnostic cap.
#include "analysis/prob_wcrt.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/experiment.hpp"
#include "net/message.hpp"
#include "net/workloads.hpp"
#include "sched/schedule_table.hpp"
#include "sched/slack_table.hpp"

namespace coeff::analysis {
namespace {

net::Message static_msg(int id, sim::Time period, std::int64_t size_bits,
                        sim::Time offset = sim::Time::zero(), int node = 0) {
  net::Message m;
  m.id = id;
  m.name = "m" + std::to_string(id);
  m.node = node;
  m.kind = net::MessageKind::kStatic;
  m.period = period;
  m.deadline = period;
  m.offset = offset;
  m.size_bits = size_bits;
  return m;
}

/// Paper application cluster: 1 ms cycle, 15 x 50us static slots.
struct Fixture {
  flexray::ClusterConfig cluster = core::paper_cluster_apps(25);
  net::MessageSet statics;
  fault::RetransmissionPlan plan;

  ProbWcrtInput input(ProbRetxModel d = ProbRetxModel::kPlannedSerial) {
    ProbWcrtInput in;
    in.cluster = &cluster;
    in.statics = &statics;
    in.discipline = d;
    in.fault_model.ber = 1e-7;
    return in;
  }
};

TEST(ProbWcrt, RejectsMalformedInput) {
  ProbWcrtInput in;
  EXPECT_THROW((void)analyze_prob_wcrt(in), std::invalid_argument);
  Fixture f;
  ProbWcrtInput rounds = f.input(ProbRetxModel::kMirroredRounds);
  rounds.rounds = 0;
  EXPECT_THROW((void)analyze_prob_wcrt(rounds), std::invalid_argument);
}

TEST(ProbWcrt, SaeClassBuckets) {
  EXPECT_EQ(sae_class_of(sim::millis(5)), 'A');
  EXPECT_EQ(sae_class_of(sim::millis(10)), 'B');
  EXPECT_EQ(sae_class_of(sim::millis(20)), 'C');
  EXPECT_EQ(sae_class_of(sim::millis(50)), 'D');
  EXPECT_EQ(sae_class_of(sim::millis(51)), 'E');
}

TEST(ProbWcrt, MirroredSingleMatchesClosedForm) {
  Fixture f;
  f.statics.add(static_msg(1, sim::millis(8), 800));
  ProbWcrtInput in = f.input(ProbRetxModel::kMirroredSingle);
  const ProbWcrtResult result = analyze_prob_wcrt(in);
  ASSERT_EQ(result.messages.size(), 1u);
  fault::AnalyticFailure af(in.fault_model);
  // One mirrored shot inside one cycle (<= D): P(miss) is the pair
  // failure at both envelope edges.
  EXPECT_NEAR(result.messages[0].p_miss_upper, af.mirrored_pair(800), 1e-15);
  EXPECT_NEAR(result.messages[0].p_miss_lower, af.mirrored_pair(800), 1e-15);
  EXPECT_EQ(result.messages[0].timely_attempts, 1);
  EXPECT_TRUE(result.messages[0].primary_live);
}

TEST(ProbWcrt, ZeroBerCleanSetHasZeroUpperMiss) {
  Fixture f;
  for (int i = 1; i <= 4; ++i) {
    f.statics.add(static_msg(i, sim::millis(8), 600, sim::Time::zero(), i));
  }
  f.plan.copies = {2, 2, 2, 2};
  const auto table =
      sched::StaticScheduleTable::build(f.statics, f.cluster, {});
  ProbWcrtInput in = f.input();
  in.plan = &f.plan;
  in.table = &table;
  in.fault_model.ber = 0.0;
  const ProbWcrtResult result = analyze_prob_wcrt(in);
  EXPECT_TRUE(result.copies_credited);
  for (const MessageProb& mp : result.messages) {
    EXPECT_TRUE(mp.primary_live);
    EXPECT_EQ(mp.p_miss_upper, 0.0) << mp.name;
    EXPECT_EQ(mp.p_miss_lower, 0.0) << mp.name;
  }
  EXPECT_EQ(result.log_reliability_upper, 0.0);
  // Zero channel loss + live placements: nothing to report.
  in.rho = 0.9999999;
  EXPECT_TRUE(lint_prob(in, result).empty());
}

// A period == cycle message placed past the last same-cycle slot start
// is overwritten by the next release before its slot fires: the primary
// deterministically never transmits (measured 49/50 instances lost in
// the simulator). The verifier must drive its upper envelope to 1 and
// flag the contradiction, even though the schedule table's latency
// check accepted the placement.
TEST(ProbWcrt, BoundaryCrossingPlacementKillsPrimary) {
  Fixture f;
  // Offset 850us is past every same-cycle slot start (slots end at
  // 750us), so the id-2 message's placement lands base_cycle = 1 while
  // its period is one cycle: the next release overwrites it first.
  f.statics.add(static_msg(1, sim::millis(1), 600, sim::Time::zero(), 1));
  f.statics.add(static_msg(2, sim::millis(1), 600, sim::micros(850), 2));
  const auto table =
      sched::StaticScheduleTable::build(f.statics, f.cluster, {});
  ProbWcrtInput in = f.input();
  in.table = &table;
  const ProbWcrtResult result = analyze_prob_wcrt(in);
  ASSERT_EQ(result.messages.size(), 2u);
  const MessageProb& doomed = result.messages.back();
  ASSERT_EQ(doomed.message_id, 2);
  EXPECT_FALSE(doomed.primary_live);
  EXPECT_EQ(doomed.timely_attempts, 0);
  EXPECT_DOUBLE_EQ(doomed.p_miss_upper, 1.0);
  // The well-placed neighbour keeps a live primary and a tiny envelope.
  EXPECT_TRUE(result.messages.front().primary_live);
  EXPECT_LT(result.messages.front().p_miss_upper, 1e-3);
  const Report report = lint_prob(in, result);
  EXPECT_TRUE(report.has_rule("analysis.kz-contradiction"));
}

// Same condition is harmless when the period spans several cycles: the
// placement may cross a boundary, but the next release is cycles away.
TEST(ProbWcrt, CrossCyclePlacementWithLongPeriodStaysLive) {
  Fixture f;
  f.statics.add(static_msg(1, sim::millis(1), 600, sim::Time::zero(), 1));
  f.statics.add(static_msg(2, sim::millis(8), 600, sim::micros(850), 2));
  const auto table =
      sched::StaticScheduleTable::build(f.statics, f.cluster, {});
  ProbWcrtInput in = f.input();
  in.table = &table;
  const ProbWcrtResult result = analyze_prob_wcrt(in);
  EXPECT_TRUE(result.messages.back().primary_live);
  EXPECT_LT(result.messages.back().p_miss_upper, 1e-3);
}

// A message the table gives no slot never sends its primary: FSPEC and
// HOSA drop the instance at release, and CoEfficient cancels the
// primary and keeps only its copies. Without a table, r0 keeps its
// one-cycle bound and the primary stays live.
TEST(ProbWcrt, UnplacedMessageHasDeadPrimary) {
  Fixture f;
  f.statics.add(static_msg(1, sim::millis(8), 600, sim::Time::zero(), 1));
  f.statics.add(static_msg(2, sim::millis(8), 600, sim::Time::zero(), 2));
  sched::SlotAssignment placed;
  placed.message_id = 1;
  placed.slot = units::SlotId{1};
  placed.repetition = 8;
  placed.latency = sim::micros(50);
  const auto table = sched::StaticScheduleTable::from_assignments(
      {placed}, f.cluster.g_number_of_static_slots);
  for (const ProbRetxModel d :
       {ProbRetxModel::kMirroredRounds, ProbRetxModel::kMirroredSingle}) {
    SCOPED_TRACE(to_string(d));
    ProbWcrtInput in = f.input(d);
    in.rounds = 2;
    in.table = &table;
    const ProbWcrtResult result = analyze_prob_wcrt(in);
    ASSERT_EQ(result.messages.size(), 2u);
    EXPECT_TRUE(result.messages[0].primary_live);
    EXPECT_LT(result.messages[0].p_miss_upper, 1e-3);
    const MessageProb& unplaced = result.messages[1];
    EXPECT_FALSE(unplaced.primary_live);
    EXPECT_EQ(unplaced.timely_attempts, 0);
    EXPECT_EQ(unplaced.p_miss_upper, 1.0);
    EXPECT_NE(lint_prob(in, result).render_text().find(
                  "message m2: the schedule table gives it no slot"),
              std::string::npos);
    in.table = nullptr;
    EXPECT_TRUE(analyze_prob_wcrt(in).messages[1].primary_live);
  }
  // CoEfficient's planned copy still rides stolen slack.
  f.plan.copies = {0, 1};
  ProbWcrtInput in = f.input();
  in.plan = &f.plan;
  in.table = &table;
  const ProbWcrtResult result = analyze_prob_wcrt(in);
  EXPECT_FALSE(result.messages[1].primary_live);
  EXPECT_LT(result.messages[1].p_miss_upper, 1e-3);
}

// When the plan's copies demand more stolen wire than the schedule
// guarantees, the upper envelope stops crediting them (the admission
// test may drop copies) and the kz-contradiction rule reports the
// oversubscription.
TEST(ProbWcrt, OversubscribedCopiesAreNotCredited) {
  Fixture f;
  // 10 period==cycle messages, 5 copies each: demand 10*5*50us =
  // 2500us/cycle against at most ~250us of guaranteed idle.
  for (int i = 1; i <= 10; ++i) {
    f.statics.add(static_msg(i, sim::millis(1), 600, sim::Time::zero(), i));
  }
  f.plan.copies.assign(10, 5);
  const auto table =
      sched::StaticScheduleTable::build(f.statics, f.cluster, {});
  ProbWcrtInput in = f.input();
  in.plan = &f.plan;
  in.table = &table;
  const ProbWcrtResult result = analyze_prob_wcrt(in);
  EXPECT_FALSE(result.copies_credited);
  EXPECT_GT(result.copy_demand_per_cycle,
            result.guaranteed_service_per_cycle);
  fault::AnalyticFailure af(in.fault_model);
  for (const MessageProb& mp : result.messages) {
    ASSERT_TRUE(mp.primary_live) << mp.name;
    // Upper credits only the owned primary slot; lower still assumes
    // every planned copy lands independently.
    EXPECT_NEAR(mp.p_miss_upper, af.attempt(600), 1e-12) << mp.name;
    EXPECT_LE(mp.p_miss_lower, af.independent_failures(600, 6) * 1.0001);
  }
  const Report report = lint_prob(in, result);
  EXPECT_TRUE(report.has_rule("analysis.kz-contradiction"));
}

// The guaranteed service per cycle has three sources: a whole cycle
// for an empty static set, zero when the set has no exact schedule,
// and otherwise the full-schedule idle floor the slack table also
// computes.
TEST(ProbWcrt, EmptyStaticSetGuaranteesOneCycle) {
  Fixture f;
  const ProbWcrtResult result = analyze_prob_wcrt(f.input());
  EXPECT_EQ(result.guaranteed_service_per_cycle, f.cluster.cycle_duration());
}

TEST(ProbWcrt, HourPlusHyperperiodGuaranteesNoService) {
  // Pairwise coprime periods: the hyperperiod is ~5.9 hours.
  Fixture f;
  int id = 1;
  for (const int period_ms : {61, 67, 71, 73}) {
    f.statics.add(static_msg(id, sim::millis(period_ms), 600,
                             sim::Time::zero(), id));
    ++id;
  }
  f.plan.copies.assign(4, 1);
  ProbWcrtInput in = f.input();
  in.plan = &f.plan;
  const ProbWcrtResult result = analyze_prob_wcrt(in);
  EXPECT_EQ(result.guaranteed_service_per_cycle, sim::Time::zero());
  EXPECT_GT(result.copy_demand_per_cycle, sim::Time::zero());
  EXPECT_FALSE(result.copies_credited);
}

TEST(ProbWcrt, GuaranteedServiceEqualsSlackTableFloor) {
  net::MessageSet ten;
  for (int i = 1; i <= 10; ++i) {
    ten.add(static_msg(i, sim::millis(1), 600, sim::Time::zero(), i));
  }
  for (const net::MessageSet& statics :
       {net::brake_by_wire(), net::adaptive_cruise(), ten}) {
    Fixture f;
    f.statics = statics;
    const ProbWcrtResult result = analyze_prob_wcrt(f.input());
    std::vector<sched::PeriodicTask> tasks;
    for (const net::Message& m : statics.messages()) {
      sched::PeriodicTask t;
      t.id = m.id;
      t.wcet = f.cluster.transmission_time(m.size_bits);
      t.period = m.period;
      t.offset = m.offset;
      t.deadline = m.deadline;
      tasks.push_back(t);
    }
    const sched::SlackTable table{sched::TaskSet(std::move(tasks))};
    EXPECT_EQ(result.guaranteed_service_per_cycle,
              table.min_idle_in_window(f.cluster.cycle_duration()))
        << statics.size() << " messages";
    EXPECT_GT(result.guaranteed_service_per_cycle, sim::Time::zero());
  }
}

TEST(ProbWcrt, MissExceedsTargetFiresOnWeakScheme) {
  Fixture f;
  f.statics.add(static_msg(1, sim::millis(1), 800));
  ProbWcrtInput in = f.input(ProbRetxModel::kMirroredSingle);
  in.fault_model.ber = 1e-5;  // one mirrored shot cannot reach SIL3
  in.rho = 0.9999999;
  const ProbWcrtResult result = analyze_prob_wcrt(in);
  const Report report = lint_prob(in, result);
  EXPECT_TRUE(report.has_rule("analysis.prob-miss-exceeds-target"));
}

TEST(ProbWcrt, MissExceedsTargetSilentWhenPlanDegraded) {
  Fixture f;
  f.statics.add(static_msg(1, sim::millis(1), 800));
  f.plan.copies = {0};
  f.plan.degraded = true;  // the plan already admits the target is lost
  f.plan.target_log_reliability = std::log(0.9999999);
  ProbWcrtInput in = f.input();
  in.fault_model.ber = 1e-5;
  in.plan = &f.plan;
  in.rho = 0.9999999;
  const ProbWcrtResult result = analyze_prob_wcrt(in);
  const Report report = lint_prob(in, result);
  EXPECT_FALSE(report.has_rule("analysis.prob-miss-exceeds-target"));
}

// kz-contradiction (b): the sizing meets the target under the
// memoryless model but not under the configured burst channel. The test
// self-calibrates rho to the midpoint of the two accountings.
TEST(ProbWcrt, KzContradictionFiresBetweenIidAndBurstAccounting) {
  Fixture f;
  f.statics.add(static_msg(1, sim::millis(4), 800));
  ProbWcrtInput in = f.input(ProbRetxModel::kMirroredRounds);
  in.rounds = 2;
  in.fault_model.kind = fault::FaultModelKind::kGilbertElliott;
  in.fault_model.gilbert_elliott.p_good_to_bad = 0.05;
  in.fault_model.gilbert_elliott.p_bad_to_good = 0.2;
  in.fault_model.gilbert_elliott.ber_good = 1e-9;
  in.fault_model.gilbert_elliott.ber_bad = 1e-3;
  // Short horizon: keeps both accountings inside exp() range so the
  // midpoint rho below is a representable probability.
  in.u = sim::seconds(1);

  fault::AnalyticFailure af(in.fault_model);
  const double occ = static_cast<double>(in.u.ns()) /
                     static_cast<double>(sim::millis(4).ns());
  const double chain_log =
      occ * std::log1p(-af.consecutive_pair_failures(800, 2));
  const double iid_log =
      occ * std::log1p(-af.independent_pair_failures(800, 2));
  ASSERT_LT(chain_log, iid_log);  // the burst channel must matter
  in.rho = std::exp((chain_log + iid_log) / 2.0);

  const ProbWcrtResult result = analyze_prob_wcrt(in);
  const Report report = lint_prob(in, result);
  EXPECT_TRUE(report.has_rule("analysis.kz-contradiction"));
}

TEST(ProbWcrt, PerRuleCapBoundsFindings) {
  Fixture f;
  // 14 doomed period==cycle messages (offset past every same-cycle slot
  // start): every one yields a kz-contradiction, far past the cap.
  for (int i = 1; i <= 14; ++i) {
    f.statics.add(
        static_msg(i, sim::millis(1), 600, sim::micros(850), i));
  }
  const auto table =
      sched::StaticScheduleTable::build(f.statics, f.cluster, {});
  ProbWcrtInput in = f.input();
  in.table = &table;
  const ProbWcrtResult result = analyze_prob_wcrt(in);
  std::size_t dead = 0;
  for (const MessageProb& mp : result.messages) dead += !mp.primary_live;
  ASSERT_GT(dead, 8u);
  const Report report = lint_prob(in, result);
  // Cap is 8 findings + 1 suppression note per rule.
  EXPECT_EQ(report.count_rule("analysis.kz-contradiction"), 9u);
}

TEST(ProbWcrt, DivergenceFlagsOnlySamplesOutsideTheEnvelope) {
  std::vector<DivergenceSample> samples;
  DivergenceSample inside;
  inside.label = "inside";
  inside.released = 10000;
  inside.missed = 2000;
  inside.p_lower = 0.0;
  inside.p_upper = 0.25;
  DivergenceSample above;
  above.label = "above";
  above.released = 10000;
  above.missed = 5000;
  above.p_lower = 0.0;
  above.p_upper = 0.01;
  DivergenceSample below;
  below.label = "below";
  below.released = 10000;
  below.missed = 0;
  below.p_lower = 0.4;
  below.p_upper = 0.6;
  samples = {inside, above, below};
  Report report;
  check_divergence(samples, report);
  EXPECT_EQ(report.count_rule("analysis.prob-vs-campaign-divergence"), 2u);
  const std::string text = report.render_text();
  EXPECT_NE(text.find("above"), std::string::npos);
  EXPECT_NE(text.find("below"), std::string::npos);
  EXPECT_EQ(text.find("inside"), std::string::npos);
}

TEST(ProbWcrt, DivergenceSlackAbsorbsBinomialNoise) {
  // 5 sigma + 2/n of slack: a sample right at the upper edge with
  // realistic sampling noise must not fire.
  DivergenceSample s;
  s.label = "edge";
  s.released = 400;
  s.p_lower = 0.0;
  s.p_upper = 0.1;
  s.missed = 48;  // 0.12 measured, within 5*sqrt(.1*.9/400)+2/400 = 0.08
  Report report;
  check_divergence({s}, report);
  EXPECT_TRUE(report.empty());
}

TEST(ProbWcrt, RenderersCarryTheEnvelope) {
  Fixture f;
  f.statics.add(static_msg(1, sim::millis(8), 600));
  ProbWcrtInput in = f.input(ProbRetxModel::kMirroredSingle);
  const ProbWcrtResult result = analyze_prob_wcrt(in);
  const std::string text = render_prob_text(in, result);
  EXPECT_NE(text.find("probabilistic WCRT analysis"), std::string::npos);
  EXPECT_NE(text.find("m1"), std::string::npos);
  const std::string json = render_prob_json(in, result);
  EXPECT_NE(json.find("\"p_miss_upper\""), std::string::npos);
  EXPECT_NE(json.find("\"primary_live\":true"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);  // valid JSON doubles only
}

}  // namespace
}  // namespace coeff::analysis
