// Seeded-violation fixtures for every TraceLint rule on hand-built
// traces, plus a clean test over a genuinely recorded experiment run.
#include "analysis/trace_lint.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "net/workloads.hpp"
#include "sim/trace.hpp"

namespace coeff::analysis {
namespace {

using sim::TraceKind;

/// Hand-built traces on the paper's application cluster: 1 ms cycle,
/// 15 static slots of 50 us, 25 minislots of 8 us.
struct Fixture {
  flexray::ClusterConfig cluster = core::paper_cluster_apps(25);
  sim::Trace trace;

  Report lint(ProbRetxModel discipline = ProbRetxModel::kPlannedSerial,
              bool initial_degraded = false) const {
    TraceLintInput input;
    input.trace = &trace;
    input.cluster = &cluster;
    input.discipline = discipline;
    input.initial_degraded = initial_degraded;
    return lint_trace(input);
  }
};

TEST(TraceLintTest, RecordedExperimentTraceIsClean) {
  core::ExperimentConfig config;
  config.cluster = core::paper_cluster_apps(25);
  config.statics = net::brake_by_wire();
  config.batch_window = sim::millis(100);
  sim::Trace trace;
  config.trace = &trace;
  (void)core::run_experiment(config, core::SchemeKind::kCoEfficient);
  ASSERT_FALSE(trace.records().empty());

  TraceLintInput input;
  input.trace = &trace;
  input.cluster = &config.cluster;
  input.discipline = ProbRetxModel::kPlannedSerial;
  const Report report = lint_trace(input);
  EXPECT_FALSE(report.has_errors()) << report.render_text();
}

TEST(TraceLintTest, MissingTraceIsAnError) {
  EXPECT_TRUE(lint_trace(TraceLintInput{}).has_rule("trace.kind-valid"));
}

TEST(TraceLintTest, KindValid) {
  Fixture f;
  f.trace.emit(sim::micros(1), static_cast<TraceKind>(200));
  EXPECT_TRUE(f.lint().has_rule("trace.kind-valid"));
}

TEST(TraceLintTest, KindValidRejectsBogusChannel) {
  Fixture f;
  f.trace.emit(sim::micros(1), TraceKind::kTxSuccess, 0, 1, /*channel=*/7, 64);
  EXPECT_TRUE(f.lint().has_rule("trace.kind-valid"));
}

TEST(TraceLintTest, MonotonicTime) {
  Fixture f;
  f.trace.emit(sim::millis(1), TraceKind::kCycleStart, 1);
  f.trace.emit(sim::millis(1), TraceKind::kCycleStart, 1);  // does not advance
  EXPECT_TRUE(f.lint().has_rule("trace.monotonic-time"));
}

TEST(TraceLintTest, CycleBoundary) {
  Fixture f;
  f.trace.emit(sim::micros(1500), TraceKind::kCycleStart, 1);  // off the grid
  EXPECT_TRUE(f.lint().has_rule("trace.cycle-boundary"));
}

TEST(TraceLintTest, CycleBoundaryChecksCycleNumber) {
  Fixture f;
  // On the grid, but claiming the wrong cycle index.
  f.trace.emit(sim::millis(2), TraceKind::kCycleStart, 5);
  EXPECT_TRUE(f.lint().has_rule("trace.cycle-boundary"));
}

TEST(TraceLintTest, TxOverlap) {
  Fixture f;
  // Two static-segment frames on channel A, 10 us apart inside one
  // 50 us slot.
  f.trace.emit(sim::micros(0), TraceKind::kTxSuccess, 0, 1, 0, 64);
  f.trace.emit(sim::micros(10), TraceKind::kTxSuccess, 1, 2, 0, 64);
  EXPECT_TRUE(f.lint().has_rule("trace.tx-overlap"));
}

TEST(TraceLintTest, SeparateChannelsDoNotOverlap) {
  Fixture f;
  f.trace.emit(sim::micros(0), TraceKind::kTxSuccess, 0, 1, 0, 64);
  f.trace.emit(sim::micros(10), TraceKind::kTxSuccess, 1, 2, 1, 64);
  EXPECT_FALSE(f.lint().has_rule("trace.tx-overlap"));
}

TEST(TraceLintTest, BackToBackSlotsDoNotOverlap) {
  Fixture f;
  f.trace.emit(sim::micros(0), TraceKind::kTxSuccess, 0, 1, 0, 64);
  f.trace.emit(sim::micros(50), TraceKind::kTxSuccess, 1, 2, 0, 64);
  EXPECT_FALSE(f.lint().has_rule("trace.tx-overlap"));
}

TEST(TraceLintTest, RetxPlannedRequiresBudget) {
  Fixture f;
  f.trace.emit(sim::micros(0), TraceKind::kTxSuccess, /*node=*/3, 1, 0, 64,
               "retx");
  EXPECT_TRUE(
      f.lint(ProbRetxModel::kPlannedSerial).has_rule("trace.retx-causality"));
}

TEST(TraceLintTest, RetxPlannedHonoursScheduledBudget) {
  Fixture f;
  // a=message, b=node, c=admitted copies.
  f.trace.emit(sim::micros(0), TraceKind::kRetransmissionScheduled, 1, 3, 1);
  f.trace.emit(sim::micros(50), TraceKind::kTxSuccess, /*node=*/3, 1, 0, 64,
               "retx");
  EXPECT_FALSE(
      f.lint(ProbRetxModel::kPlannedSerial).has_rule("trace.retx-causality"));
}

TEST(TraceLintTest, RetxPlannedFlagsExcessCopies) {
  Fixture f;
  f.trace.emit(sim::micros(0), TraceKind::kRetransmissionScheduled, 1, 3, 1);
  f.trace.emit(sim::micros(50), TraceKind::kTxSuccess, 3, 1, 0, 64, "retx");
  f.trace.emit(sim::micros(100), TraceKind::kTxSuccess, 3, 1, 0, 64, "retx");
  const Report report = f.lint(ProbRetxModel::kPlannedSerial);
  EXPECT_EQ(report.count_rule("trace.retx-causality"), 1u);
}

TEST(TraceLintTest, RetxRoundsMustRepeatAnOriginal) {
  Fixture f;
  f.trace.emit(sim::micros(0), TraceKind::kTxSuccess, 3, 1, 0, 64, "retx");
  EXPECT_TRUE(
      f.lint(ProbRetxModel::kMirroredRounds).has_rule("trace.retx-causality"));
}

TEST(TraceLintTest, RetxRoundsAcceptsRepeatOfEarlierFrame) {
  Fixture f;
  // The round-1 original (even a corrupted one) justifies later rounds.
  f.trace.emit(sim::micros(0), TraceKind::kTxCorrupted, 3, 1, 0, 64);
  f.trace.emit(sim::micros(50), TraceKind::kTxSuccess, 3, 1, 0, 64, "retx");
  EXPECT_FALSE(
      f.lint(ProbRetxModel::kMirroredRounds).has_rule("trace.retx-causality"));
}

TEST(TraceLintTest, RetxMirroredBelongsOnChannelB) {
  Fixture f;
  f.trace.emit(sim::micros(0), TraceKind::kTxSuccess, 3, 1, /*channel=*/0, 64,
               "retx");
  EXPECT_TRUE(
      f.lint(ProbRetxModel::kMirroredSingle).has_rule("trace.retx-causality"));
}

TEST(TraceLintTest, RetxMirroredAcceptsChannelB) {
  Fixture f;
  f.trace.emit(sim::micros(0), TraceKind::kTxSuccess, 3, 1, /*channel=*/1, 64,
               "retx");
  EXPECT_FALSE(
      f.lint(ProbRetxModel::kMirroredSingle).has_rule("trace.retx-causality"));
}

TEST(TraceLintTest, PlanSwapBoundary) {
  Fixture f;
  f.trace.emit(sim::micros(500), TraceKind::kPlanSwap, 0, 4, 0);
  EXPECT_TRUE(f.lint().has_rule("trace.plan-swap-boundary"));
}

TEST(TraceLintTest, PlanSwapOnBoundaryIsClean) {
  Fixture f;
  f.trace.emit(sim::millis(2), TraceKind::kPlanSwap, 2, 4, 0);
  EXPECT_FALSE(f.lint().has_rule("trace.plan-swap-boundary"));
}

TEST(TraceLintTest, LoadShedRequiresDegradedMode) {
  Fixture f;
  f.trace.emit(sim::micros(100), TraceKind::kLoadShed, 7, 2);
  EXPECT_TRUE(f.lint().has_rule("trace.load-shed-degraded"));
}

TEST(TraceLintTest, LoadShedLegalAfterDegradedSwap) {
  Fixture f;
  f.trace.emit(sim::millis(1), TraceKind::kPlanSwap, 1, 4, /*degraded=*/1);
  f.trace.emit(sim::micros(1100), TraceKind::kLoadShed, 7, 2);
  EXPECT_FALSE(f.lint().has_rule("trace.load-shed-degraded"));
}

TEST(TraceLintTest, LoadShedLegalWhenInitiallyDegraded) {
  Fixture f;
  f.trace.emit(sim::micros(100), TraceKind::kLoadShed, 7, 2);
  EXPECT_FALSE(f.lint(ProbRetxModel::kPlannedSerial, /*initial_degraded=*/true)
                   .has_rule("trace.load-shed-degraded"));
}

TEST(TraceLintTest, StructuralTransitionOffGridIsFlagged) {
  Fixture f;
  f.trace.emit(sim::micros(500), TraceKind::kNodeCrash, 1);  // mid-cycle
  EXPECT_TRUE(f.lint().has_rule("trace.structural-boundary"));
}

TEST(TraceLintTest, StructuralTransitionChecksCycleTag) {
  Fixture f;
  // On the grid, but the recorded cycle tag disagrees with the time.
  f.trace.emit(sim::millis(2), TraceKind::kNodeCrash, 1, /*cycle=*/5);
  EXPECT_TRUE(f.lint().has_rule("trace.structural-boundary"));
}

TEST(TraceLintTest, AlignedStructuralTransitionIsClean) {
  Fixture f;
  f.trace.emit(sim::millis(2), TraceKind::kNodeCrash, 1, /*cycle=*/2);
  f.trace.emit(sim::millis(4), TraceKind::kNodeRestart, 1, /*cycle=*/4);
  const Report report = f.lint();
  EXPECT_FALSE(report.has_rule("trace.structural-boundary"));
  EXPECT_FALSE(report.has_rule("trace.structural-causality"));
}

TEST(TraceLintTest, DoubleCrashIsACausalityViolation) {
  Fixture f;
  f.trace.emit(sim::millis(1), TraceKind::kNodeCrash, 1, 1);
  f.trace.emit(sim::millis(2), TraceKind::kNodeCrash, 1, 2);
  EXPECT_TRUE(f.lint().has_rule("trace.structural-causality"));
}

TEST(TraceLintTest, RestartWithoutCrashIsACausalityViolation) {
  Fixture f;
  f.trace.emit(sim::millis(1), TraceKind::kNodeRestart, 1, 1);
  EXPECT_TRUE(f.lint().has_rule("trace.structural-causality"));
}

TEST(TraceLintTest, ChannelDownTwiceIsACausalityViolation) {
  Fixture f;
  f.trace.emit(sim::millis(1), TraceKind::kChannelDown, 0, 1);
  f.trace.emit(sim::millis(2), TraceKind::kChannelDown, 0, 2);
  EXPECT_TRUE(f.lint().has_rule("trace.structural-causality"));
}

TEST(TraceLintTest, ChannelUpWithoutDownIsACausalityViolation) {
  Fixture f;
  f.trace.emit(sim::millis(1), TraceKind::kChannelUp, 1, 1);
  EXPECT_TRUE(f.lint().has_rule("trace.structural-causality"));
}

TEST(TraceLintTest, ChannelEventTagMustBeAChannel) {
  Fixture f;
  f.trace.emit(sim::millis(1), TraceKind::kChannelDown, /*channel=*/7, 1);
  EXPECT_TRUE(f.lint().has_rule("trace.kind-valid"));
}

TEST(TraceLintTest, FailoverRequiresDarkHomeChannel) {
  Fixture f;
  // a=sender, b=slot, c=carrying channel, d=bits.
  f.trace.emit(sim::micros(100), TraceKind::kFailover, 0, 2, 1, 64);
  EXPECT_TRUE(f.lint().has_rule("trace.failover-causality"));
}

TEST(TraceLintTest, FailoverMustRideALiveWire) {
  Fixture f;
  f.trace.emit(sim::millis(1), TraceKind::kChannelDown, 0, 1);
  f.trace.emit(sim::millis(2), TraceKind::kChannelDown, 1, 2);
  f.trace.emit(sim::millis(2) + sim::micros(100), TraceKind::kFailover, 0, 2,
               /*channel=*/1, 64);
  EXPECT_TRUE(f.lint().has_rule("trace.failover-causality"));
}

TEST(TraceLintTest, FailoverDuringBlackoutIsClean) {
  Fixture f;
  f.trace.emit(sim::millis(1), TraceKind::kChannelDown, 0, 1);
  f.trace.emit(sim::millis(1) + sim::micros(100), TraceKind::kTxSuccess, 0, 1,
               /*channel=*/1, 64);
  f.trace.emit(sim::millis(1) + sim::micros(100), TraceKind::kFailover, 0, 2,
               /*channel=*/1, 64);
  EXPECT_FALSE(f.lint().has_rule("trace.failover-causality"));
}

TEST(TraceLintTest, TransmissionOnDarkChannelIsFlagged) {
  Fixture f;
  f.trace.emit(sim::millis(1), TraceKind::kChannelDown, 0, 1);
  f.trace.emit(sim::millis(1) + sim::micros(100), TraceKind::kTxSuccess, 0, 1,
               /*channel=*/0, 64);
  EXPECT_TRUE(f.lint().has_rule("trace.dead-channel-tx"));
}

TEST(TraceLintTest, TransmissionAfterChannelRecoveryIsClean) {
  Fixture f;
  f.trace.emit(sim::millis(1), TraceKind::kChannelDown, 0, 1);
  f.trace.emit(sim::millis(2), TraceKind::kChannelUp, 0, 2);
  f.trace.emit(sim::millis(2) + sim::micros(100), TraceKind::kTxSuccess, 0, 1,
               /*channel=*/0, 64);
  EXPECT_FALSE(f.lint().has_rule("trace.dead-channel-tx"));
}

TEST(TraceLintTest, VoteSizeMustBeOddAndAtLeastThree) {
  Fixture f;
  // a=message, b=accepted, c=clean, d=k.
  f.trace.emit(sim::micros(100), TraceKind::kVoteResolved, 1, 1, 2, 2);
  f.trace.emit(sim::micros(200), TraceKind::kVoteResolved, 1, 1, 1, 1);
  EXPECT_EQ(f.lint().count_rule("trace.vote-consistency"), 2u);
}

TEST(TraceLintTest, VoteVerdictMustMatchCleanMajority) {
  Fixture f;
  // Accepted with 1 of 3 clean replicas: majority is 2.
  f.trace.emit(sim::micros(100), TraceKind::kVoteResolved, 1, 1, 1, 3);
  EXPECT_TRUE(f.lint().has_rule("trace.vote-consistency"));
}

TEST(TraceLintTest, ConsistentVotesAreClean) {
  Fixture f;
  f.trace.emit(sim::micros(100), TraceKind::kVoteResolved, 1, 1, 2, 3);
  f.trace.emit(sim::micros(200), TraceKind::kVoteResolved, 2, 0, 1, 3);
  EXPECT_FALSE(f.lint().has_rule("trace.vote-consistency"));
}

TEST(TraceLintTest, ModeChangeOffBoundaryIsFlagged) {
  Fixture f;
  // a=from, b=to, c=cycle: half a millisecond into the 1 ms cycle grid.
  f.trace.emit(sim::micros(500), TraceKind::kModeChange, 0, 1, 0, 10);
  EXPECT_TRUE(f.lint().has_rule("trace.mode-change-boundary"));
}

TEST(TraceLintTest, ModeChangeWrongCycleTagIsFlagged) {
  Fixture f;
  // Aligned timestamp, but the recorded cycle tag says cycle 5.
  f.trace.emit(sim::millis(2), TraceKind::kModeChange, 0, 1, 5, 10);
  EXPECT_TRUE(f.lint().has_rule("trace.mode-change-boundary"));
}

TEST(TraceLintTest, ModeChangeSelfLoopIsKindInvalid) {
  Fixture f;
  // from == to is not a transition; out-of-range tags ride the same
  // check.
  f.trace.emit(sim::millis(1), TraceKind::kModeChange, 1, 1, 1, 10);
  EXPECT_TRUE(f.lint().has_rule("trace.kind-valid"));
  Fixture g;
  g.trace.emit(sim::millis(1), TraceKind::kModeChange, 0, 3, 1, 10);
  EXPECT_TRUE(g.lint().has_rule("trace.kind-valid"));
}

TEST(TraceLintTest, ShedOutsideDegradedIsFlagged) {
  Fixture f;
  // No kModeChange before it: the replayed mode is still NORMAL.
  f.trace.emit(sim::millis(1), TraceKind::kShedByMode, 1001, 0, 1, 0);
  EXPECT_TRUE(f.lint().has_rule("trace.shed-outside-degraded"));
}

TEST(TraceLintTest, ShedModeTagMustMatchReplayedMode) {
  Fixture f;
  f.trace.emit(sim::millis(1), TraceKind::kModeChange, 0, 1, 1, 10);
  // Shed claims mode 2 while the replay says DEGRADED-L1.
  f.trace.emit(sim::millis(1) + sim::micros(100), TraceKind::kShedByMode,
               1001, 0, 2, 0);
  EXPECT_TRUE(f.lint().has_rule("trace.shed-outside-degraded"));
}

TEST(TraceLintTest, ShedInDegradedModeIsClean) {
  Fixture f;
  f.trace.emit(sim::millis(1), TraceKind::kModeChange, 0, 1, 1, 10);
  f.trace.emit(sim::millis(1) + sim::micros(100), TraceKind::kShedByMode,
               1001, 0, 1, 0);
  EXPECT_FALSE(f.lint().has_rule("trace.shed-outside-degraded"));
}

TEST(TraceLintTest, MatchupWhileDegradedIsFlagged) {
  Fixture f;
  f.trace.emit(sim::millis(1), TraceKind::kModeChange, 0, 1, 1, 10);
  f.trace.emit(sim::millis(2), TraceKind::kMatchUp, 1001, 0, 2, 0);
  EXPECT_TRUE(f.lint().has_rule("trace.matchup-before-recovery"));
}

TEST(TraceLintTest, MatchupWithoutNormalReturnIsFlagged) {
  Fixture f;
  // NORMAL from the start, but nothing was ever shed/recovered: a
  // match-up record with no prior return-to-NORMAL is causally wrong.
  f.trace.emit(sim::millis(2), TraceKind::kMatchUp, 1001, 0, 2, 0);
  EXPECT_TRUE(f.lint().has_rule("trace.matchup-before-recovery"));
}

TEST(TraceLintTest, MatchupBeforeRecoveryWindowIsFlagged) {
  Fixture f;
  f.trace.emit(sim::millis(1), TraceKind::kModeChange, 0, 1, 1, 4);
  // Back to NORMAL at cycle 3 with a 4-cycle recovery window: match-up
  // opens at cycle 6 (the window counts the return cycle itself).
  f.trace.emit(sim::millis(3), TraceKind::kModeChange, 1, 0, 3, 4);
  f.trace.emit(sim::millis(4), TraceKind::kMatchUp, 1001, 0, 4, 0);
  EXPECT_TRUE(f.lint().has_rule("trace.matchup-before-recovery"));
}

TEST(TraceLintTest, MatchupAfterRecoveryWindowIsClean) {
  Fixture f;
  f.trace.emit(sim::millis(1), TraceKind::kModeChange, 0, 1, 1, 4);
  f.trace.emit(sim::millis(3), TraceKind::kModeChange, 1, 0, 3, 4);
  f.trace.emit(sim::millis(6), TraceKind::kMatchUp, 1001, 0, 6, 0);
  const Report report = f.lint();
  EXPECT_FALSE(report.has_rule("trace.matchup-before-recovery"))
      << report.render_text();
  EXPECT_FALSE(report.has_rule("trace.mode-change-boundary"));
  EXPECT_FALSE(report.has_rule("trace.shed-outside-degraded"));
}

TEST(TraceLintTest, FloodedRuleIsCapped) {
  Fixture f;
  for (int i = 0; i < 20; ++i) {
    f.trace.emit(sim::millis(1) * (i + 1) + sim::micros(500),
                 TraceKind::kPlanSwap, i + 1, 4, 0);
  }
  const Report report = f.lint();
  EXPECT_EQ(report.count(Severity::kError), 8u)
      << "per-rule diagnostics must be capped";
  EXPECT_EQ(report.count(Severity::kNote), 1u)
      << "the cap must be announced with a suppression note";
}

}  // namespace
}  // namespace coeff::analysis
