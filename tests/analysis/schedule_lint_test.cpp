// Seeded-violation fixtures: one test per ScheduleLint rule, each
// asserting the exact rule id fires, plus a clean-config test over the
// shipped paper workloads.
#include "analysis/schedule_lint.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/experiment.hpp"
#include "fault/iec61508.hpp"
#include "fault/reliability.hpp"
#include "net/workloads.hpp"
#include "sched/schedule_table.hpp"

namespace coeff::analysis {
namespace {

net::Message static_msg(int id, sim::Time period, std::int64_t size_bits,
                        int node = 0) {
  net::Message m;
  m.id = id;
  m.name = "m" + std::to_string(id);
  m.node = node;
  m.kind = net::MessageKind::kStatic;
  m.period = period;
  m.deadline = period;
  m.size_bits = size_bits;
  return m;
}

net::Message dynamic_msg(int id, sim::Time period, std::int64_t size_bits) {
  net::Message m = static_msg(id, period, size_bits);
  m.kind = net::MessageKind::kDynamic;
  m.frame_id = 100 + id;
  return m;
}

/// Minimal structurally-valid fixture on the paper's application
/// cluster (1 ms cycle, 15 static slots).
struct Fixture {
  flexray::ClusterConfig cluster = core::paper_cluster_apps(25);
  net::MessageSet statics;
  net::MessageSet dynamics;

  Report lint() const {
    ScheduleLintInput input;
    input.cluster = &cluster;
    input.statics = &statics;
    input.dynamics = &dynamics;
    return lint_schedule(input);
  }
};

TEST(ScheduleLintTest, ShippedWorkloadsAreClean) {
  for (const char* name : {"bbw", "acc", "apps"}) {
    Fixture f;
    f.statics = std::string(name) == "bbw" ? net::brake_by_wire()
                : std::string(name) == "acc"
                    ? net::adaptive_cruise()
                    : net::brake_by_wire().merged_with(net::adaptive_cruise());
    const auto table =
        sched::StaticScheduleTable::build(f.statics, f.cluster);
    fault::SolverOptions solver;
    solver.rho = fault::reliability_goal(fault::Sil::kSil3, solver.u);
    const auto plan = fault::solve_differentiated(f.statics, solver);

    ScheduleLintInput input;
    input.cluster = &f.cluster;
    input.statics = &f.statics;
    input.dynamics = &f.dynamics;
    input.table = &table;
    input.plan = &plan;
    input.ber = solver.ber;
    input.rho = solver.rho;
    input.u = solver.u;
    const Report report = lint_schedule(input);
    EXPECT_TRUE(report.diagnostics().empty())
        << name << ":\n" << report.render_text();
  }
}

TEST(ScheduleLintTest, ConfigValid) {
  Fixture f;
  f.cluster.g_number_of_static_slots = 0;
  const Report report = f.lint();
  EXPECT_TRUE(report.has_rule("schedule.config-valid"));
  EXPECT_TRUE(report.has_errors());
}

TEST(ScheduleLintTest, NullClusterIsAConfigError) {
  const Report report = lint_schedule(ScheduleLintInput{});
  EXPECT_TRUE(report.has_rule("schedule.config-valid"));
}

TEST(ScheduleLintTest, MacrotickRoundTripCleanOnPaperCluster) {
  Fixture f;
  const Report report = f.lint();
  EXPECT_FALSE(report.has_rule("schedule.macrotick-roundtrip"));
}

TEST(ScheduleLintTest, MacrotickRoundTripFlagsFractionalMicrosecond) {
  Fixture f;
  f.cluster.gd_macrotick = sim::nanos(1500);
  const Report report = f.lint();
  EXPECT_TRUE(report.has_rule("schedule.macrotick-roundtrip"));
  // A warning, not an error: the simulator itself runs fine on a
  // nanosecond grid, only the message CSV's whole-microsecond
  // period_us, offset_us and deadline_us fields miss grid points.
  EXPECT_FALSE(report.has_errors());
}

TEST(ScheduleLintTest, MessageSetValid) {
  Fixture f;
  f.statics.add(static_msg(1, sim::millis(1), 64));
  f.statics.add(static_msg(1, sim::millis(1), 64));  // duplicate id
  EXPECT_TRUE(f.lint().has_rule("schedule.message-set-valid"));
}

// A message on node 12 of a 10-node cluster: the run refuses it
// (SchedulerBase's constructor), so lint reports it as an error.
TEST(ScheduleLintTest, MessageNodeOutsideTheCluster) {
  Fixture f;
  ASSERT_EQ(f.cluster.num_nodes, 10);
  f.statics.add(static_msg(1, sim::millis(1), 64, /*node=*/9));
  EXPECT_FALSE(f.lint().has_errors());
  f.statics.add(static_msg(2, sim::millis(1), 64, /*node=*/12));
  const Report report = f.lint();
  EXPECT_TRUE(report.has_rule("schedule.message-set-valid"));
  EXPECT_TRUE(report.has_errors());
  EXPECT_NE(report.render_text().find(
                "static set: message 2: node 12 outside the cluster's 10 "
                "nodes"),
            std::string::npos);
}

TEST(ScheduleLintTest, DeadlinePeriod) {
  Fixture f;
  net::Message m = static_msg(1, sim::millis(2), 64);
  m.deadline = sim::millis(3);  // beyond the period
  f.statics.add(m);
  EXPECT_TRUE(f.lint().has_rule("schedule.deadline-period"));
}

TEST(ScheduleLintTest, PeriodCycle) {
  Fixture f;
  // 1.5 ms is not a multiple of the 1 ms communication cycle.
  f.statics.add(static_msg(1, sim::micros(1500), 64));
  EXPECT_TRUE(f.lint().has_rule("schedule.period-cycle"));
}

TEST(ScheduleLintTest, SlotCapacity) {
  Fixture f;
  f.statics.add(static_msg(1, sim::millis(1), 1 << 20));
  EXPECT_TRUE(f.lint().has_rule("schedule.slot-capacity"));
}

TEST(ScheduleLintTest, MinislotBudget) {
  Fixture f;
  f.dynamics.add(dynamic_msg(1, sim::millis(10), 1 << 20));
  EXPECT_TRUE(f.lint().has_rule("schedule.minislot-budget"));
}

TEST(ScheduleLintTest, MinislotBudgetWhenSegmentIsEmpty) {
  Fixture f;
  // No minislots at all: pLatestTx derives to 0 and nothing dynamic can
  // ever start, yet the cluster itself is still legal.
  f.cluster.g_number_of_minislots = 0;
  f.dynamics.add(dynamic_msg(1, sim::millis(10), 64));
  EXPECT_TRUE(f.lint().has_rule("schedule.minislot-budget"));
}

TEST(ScheduleLintTest, MinislotLoadIsAWarning) {
  Fixture f;
  // Each frame needs a few minislots every cycle; 30 of them oversubscribe
  // the 25-minislot budget in expectation without any single frame being
  // structurally impossible.
  for (int i = 0; i < 30; ++i) {
    f.dynamics.add(dynamic_msg(i + 1, sim::millis(1), 256));
  }
  const Report report = f.lint();
  EXPECT_TRUE(report.has_rule("schedule.minislot-load"));
  EXPECT_FALSE(report.has_errors());
  EXPECT_GE(report.count(Severity::kWarning), 1u);
}

TEST(ScheduleLintTest, HyperperiodOverflow) {
  Fixture f;
  // Pairwise-coprime prime periods: LCM = 983*991*997 ms, about 11 days.
  f.statics.add(static_msg(1, sim::millis(983), 64));
  f.statics.add(static_msg(2, sim::millis(991), 64));
  f.statics.add(static_msg(3, sim::millis(997), 64));
  EXPECT_TRUE(f.lint().has_rule("schedule.hyperperiod-overflow"));
}

TEST(ScheduleLintTest, SlotBounds) {
  Fixture f;
  f.statics.add(static_msg(1, sim::millis(1), 64));
  sched::SlotAssignment bad;
  bad.message_id = 1;
  bad.slot = units::SlotId{99};  // the apps cluster has 15 static slots
  const auto table = sched::StaticScheduleTable::from_assignments(
      {bad}, f.cluster.g_number_of_static_slots);
  ScheduleLintInput input;
  input.cluster = &f.cluster;
  input.statics = &f.statics;
  input.table = &table;
  EXPECT_TRUE(lint_schedule(input).has_rule("schedule.slot-bounds"));
}

TEST(ScheduleLintTest, SlotBoundsRejectsDegeneratePhase) {
  Fixture f;
  sched::SlotAssignment bad;
  bad.message_id = 1;
  bad.slot = units::SlotId{1};
  bad.repetition = 0;
  const auto table = sched::StaticScheduleTable::from_assignments(
      {bad}, f.cluster.g_number_of_static_slots);
  ScheduleLintInput input;
  input.cluster = &f.cluster;
  input.table = &table;
  EXPECT_TRUE(lint_schedule(input).has_rule("schedule.slot-bounds"));
}

TEST(ScheduleLintTest, FrameIdUnique) {
  Fixture f;
  // Phases (base 0, rep 2) and (base 2, rep 4) coincide at cycles 2, 6, ...
  sched::SlotAssignment x;
  x.message_id = 1;
  x.slot = units::SlotId{1};
  x.base_cycle = units::CycleIndex{0};
  x.repetition = 2;
  sched::SlotAssignment y;
  y.message_id = 2;
  y.slot = units::SlotId{1};
  y.base_cycle = units::CycleIndex{2};
  y.repetition = 4;
  const auto table = sched::StaticScheduleTable::from_assignments(
      {x, y}, f.cluster.g_number_of_static_slots);
  ScheduleLintInput input;
  input.cluster = &f.cluster;
  input.table = &table;
  EXPECT_TRUE(lint_schedule(input).has_rule("schedule.frame-id-unique"));
}

TEST(ScheduleLintTest, DisjointPhasesDoNotCollide) {
  Fixture f;
  sched::SlotAssignment x;
  x.message_id = 1;
  x.slot = units::SlotId{1};
  x.base_cycle = units::CycleIndex{0};
  x.repetition = 2;
  sched::SlotAssignment y;
  y.message_id = 2;
  y.slot = units::SlotId{1};
  y.base_cycle = units::CycleIndex{1};  // odd cycles only: never meets (base 0, rep 2)
  y.repetition = 2;
  const auto table = sched::StaticScheduleTable::from_assignments(
      {x, y}, f.cluster.g_number_of_static_slots);
  ScheduleLintInput input;
  input.cluster = &f.cluster;
  input.table = &table;
  EXPECT_FALSE(lint_schedule(input).has_rule("schedule.frame-id-unique"));
}

TEST(ScheduleLintTest, UnplacedFromOversubscribedBuilder) {
  Fixture f;
  // 16 period-one-cycle messages cannot share 15 exclusive slot phases.
  for (int i = 0; i < 16; ++i) {
    f.statics.add(static_msg(i + 1, sim::millis(1), 64));
  }
  const auto table = sched::StaticScheduleTable::build(f.statics, f.cluster);
  ScheduleLintInput input;
  input.cluster = &f.cluster;
  input.statics = &f.statics;
  input.table = &table;
  EXPECT_TRUE(lint_schedule(input).has_rule("schedule.unplaced"));
}

TEST(ScheduleLintTest, DeadlineRiskIsAWarning) {
  Fixture f;
  // A 30 us deadline is shorter than one 50 us static slot: no TDMA
  // placement can meet it, which the builder records as deadline risk.
  net::Message m = static_msg(1, sim::millis(1), 64);
  m.deadline = sim::micros(30);
  f.statics.add(m);
  const auto table = sched::StaticScheduleTable::build(f.statics, f.cluster);
  ScheduleLintInput input;
  input.cluster = &f.cluster;
  input.statics = &f.statics;
  input.table = &table;
  const Report report = lint_schedule(input);
  EXPECT_TRUE(report.has_rule("schedule.deadline-risk"));
  EXPECT_FALSE(report.has_errors());
}

TEST(ScheduleLintTest, Theorem1RecheckCatchesTamperedPlan) {
  Fixture f;
  f.statics.add(static_msg(1, sim::millis(1), 64));
  fault::SolverOptions solver;
  solver.rho = fault::reliability_goal(fault::Sil::kSil3, solver.u);
  fault::RetransmissionPlan plan =
      fault::solve_differentiated(f.statics, solver);
  plan.log_reliability += 1e-3;  // claim a reliability the k_z cannot give

  ScheduleLintInput input;
  input.cluster = &f.cluster;
  input.statics = &f.statics;
  input.plan = &plan;
  input.ber = solver.ber;
  input.rho = solver.rho;
  input.u = solver.u;
  EXPECT_TRUE(lint_schedule(input).has_rule("schedule.theorem1-recheck"));
}

TEST(ScheduleLintTest, Theorem1RecheckCatchesSizeMismatch) {
  Fixture f;
  f.statics.add(static_msg(1, sim::millis(1), 64));
  f.statics.add(static_msg(2, sim::millis(1), 64));
  fault::RetransmissionPlan plan;
  plan.copies = {0};  // one entry for a two-message set

  ScheduleLintInput input;
  input.cluster = &f.cluster;
  input.statics = &f.statics;
  input.plan = &plan;
  EXPECT_TRUE(lint_schedule(input).has_rule("schedule.theorem1-recheck"));
}

TEST(ScheduleLintTest, PlanDegradedIsAWarning) {
  Fixture f;
  f.statics.add(static_msg(1, sim::millis(1), 64));
  fault::SolverOptions solver;
  solver.ber = 1e-3;  // noisy channel
  solver.rho = 1.0 - 1e-12;
  solver.max_copies_per_message = 1;  // rho unreachable within the bound
  const fault::RetransmissionPlan plan =
      fault::solve_differentiated(f.statics, solver);
  ASSERT_TRUE(plan.degraded);

  ScheduleLintInput input;
  input.cluster = &f.cluster;
  input.statics = &f.statics;
  input.plan = &plan;
  input.ber = solver.ber;
  input.rho = solver.rho;
  input.u = solver.u;
  const Report report = lint_schedule(input);
  EXPECT_TRUE(report.has_rule("schedule.plan-degraded"));
  EXPECT_FALSE(report.has_errors());
}

TEST(ScheduleLintTest, RtaDeadlineIsAWarning) {
  Fixture f;
  // 45 frames x 24 us wire time demand 1.08 ms per 1 ms period: the
  // response-time recurrence cannot fit the lowest-priority frames
  // before their deadlines. The frames spread over the cluster's nodes.
  for (int i = 0; i < 45; ++i) {
    f.statics.add(
        static_msg(i + 1, sim::millis(1), 1200, i % f.cluster.num_nodes));
  }
  const Report report = f.lint();
  EXPECT_TRUE(report.has_rule("schedule.rta-deadline"));
  EXPECT_FALSE(report.has_errors());
}

TEST(ScheduleLintTest, SlackInfeasibleIsAWarning) {
  Fixture f;
  // Three frames release together at t = 0 with deadlines of two wire
  // times: whichever goes last finishes at three, so the offline
  // periodic schedule misses a deadline in a set that is otherwise
  // structurally clean (U is far below 1).
  const std::int64_t bits = 1200;
  const sim::Time wire = f.cluster.transmission_time(bits);
  for (int i = 0; i < 3; ++i) {
    net::Message m = static_msg(i + 1, sim::millis(1), bits, i);
    m.deadline = wire * 2;
    f.statics.add(m);
  }
  const Report report = f.lint();
  ASSERT_EQ(report.count_rule("schedule.slack-infeasible"), 1u)
      << report.render_text();
  EXPECT_FALSE(report.has_errors());
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.rule != "schedule.slack-infeasible") continue;
    EXPECT_EQ(d.severity, Severity::kWarning);
    EXPECT_EQ(d.message,
              "offline periodic schedule of the static set misses a "
              "deadline; slack queries are not meaningful");
  }
}

TEST(ScheduleLintTest, SemanticRulesAreGatedOnStructuralErrors) {
  Fixture f;
  f.statics.add(static_msg(1, sim::millis(1), 1 << 20));  // slot-capacity
  fault::RetransmissionPlan plan;
  plan.copies = {0, 0, 0};  // size mismatch would fire theorem1-recheck

  ScheduleLintInput input;
  input.cluster = &f.cluster;
  input.statics = &f.statics;
  input.plan = &plan;
  const Report report = lint_schedule(input);
  EXPECT_TRUE(report.has_rule("schedule.slot-capacity"));
  EXPECT_FALSE(report.has_rule("schedule.theorem1-recheck"))
      << "semantic phase must be skipped after a structural error";
}

}  // namespace
}  // namespace coeff::analysis
