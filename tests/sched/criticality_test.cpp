#include "sched/criticality.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "net/message.hpp"
#include "sim/time.hpp"

namespace coeff::sched {
namespace {

using net::Criticality;

ModePolicy quick_policy() {
  ModePolicy p;
  p.enabled = true;
  p.enter_l1_factor = 5.0;
  p.enter_l2_factor = 25.0;
  p.exit_factor = 2.0;
  p.min_dwell_cycles = 3;
  p.recovery_cycles = 2;
  return p;
}

TEST(ModeManagerTest, EscalatesOneLevelPerCycle) {
  ModeManager mgr(quick_policy());
  // Severe drift wants L2 immediately, but each evaluate() steps one
  // level so every transition is traceable.
  auto d1 = mgr.evaluate(100.0, false);
  EXPECT_TRUE(d1.changed);
  EXPECT_EQ(d1.from, CriticalityMode::kNormal);
  EXPECT_EQ(d1.to, CriticalityMode::kDegradedL1);
  auto d2 = mgr.evaluate(100.0, false);
  EXPECT_TRUE(d2.changed);
  EXPECT_EQ(d2.to, CriticalityMode::kDegradedL2);
  auto d3 = mgr.evaluate(100.0, false);
  EXPECT_FALSE(d3.changed);
  EXPECT_EQ(mgr.mode(), CriticalityMode::kDegradedL2);
  EXPECT_EQ(int{d1.changed} + int{d2.changed} + int{d3.changed}, 2);
}

TEST(ModeManagerTest, OverloadAloneOnlyJustifiesL1) {
  ModeManager mgr(quick_policy());
  for (int c = 0; c < 10; ++c) (void)mgr.evaluate(1.0, true);
  EXPECT_EQ(mgr.mode(), CriticalityMode::kDegradedL1);
}

TEST(ModeManagerTest, DeEscalationNeedsDwellAndCalmStreak) {
  ModeManager mgr(quick_policy());
  (void)mgr.evaluate(10.0, false);
  ASSERT_EQ(mgr.mode(), CriticalityMode::kDegradedL1);
  // Calm immediately: recovery_cycles=2 of calm are reached before
  // min_dwell_cycles=3, so dwell is the binding constraint.
  (void)mgr.evaluate(1.0, false);  // dwell=1 after entry cycle... calm=1
  (void)mgr.evaluate(1.0, false);  // calm=2 >= recovery, dwell=2 < 3
  EXPECT_EQ(mgr.mode(), CriticalityMode::kDegradedL1);
  auto d = mgr.evaluate(1.0, false);  // dwell=3 >= 3: steps down
  EXPECT_TRUE(d.changed);
  EXPECT_EQ(d.to, CriticalityMode::kNormal);
}

TEST(ModeManagerTest, CalmStreakResetsOnNoisyCycle) {
  auto policy = quick_policy();
  policy.min_dwell_cycles = 0;
  ModeManager mgr(policy);
  (void)mgr.evaluate(10.0, false);
  ASSERT_TRUE(mgr.degraded());
  // Calm, noisy, calm: the noisy cycle (ratio in the hysteresis band,
  // above exit_factor) must reset the streak and hold the mode.
  (void)mgr.evaluate(1.0, false);
  (void)mgr.evaluate(3.0, false);
  (void)mgr.evaluate(1.0, false);
  EXPECT_TRUE(mgr.degraded());
  (void)mgr.evaluate(1.0, false);  // second consecutive calm cycle
  EXPECT_FALSE(mgr.degraded());
}

TEST(ModeManagerTest, StepDownConsumesTheCalmStreak) {
  // L2 -> L1 -> NORMAL must take one full calm window per step, not
  // ride a single streak straight down.
  auto policy = quick_policy();
  policy.min_dwell_cycles = 0;
  ModeManager mgr(policy);
  (void)mgr.evaluate(100.0, false);
  (void)mgr.evaluate(100.0, false);
  ASSERT_EQ(mgr.mode(), CriticalityMode::kDegradedL2);
  (void)mgr.evaluate(1.0, false);
  auto d = mgr.evaluate(1.0, false);  // calm streak hits 2: L2 -> L1
  EXPECT_TRUE(d.changed);
  EXPECT_EQ(d.to, CriticalityMode::kDegradedL1);
  auto hold = mgr.evaluate(1.0, false);  // streak restarted: holds L1
  EXPECT_FALSE(hold.changed);
  auto down = mgr.evaluate(1.0, false);
  EXPECT_TRUE(down.changed);
  EXPECT_EQ(down.to, CriticalityMode::kNormal);
}

TEST(ModeManagerTest, MatchupOpensAfterRecoveryWindowInNormal) {
  ModeManager mgr(quick_policy());
  (void)mgr.evaluate(1.0, false);
  EXPECT_FALSE(mgr.matchup_open());  // 1 NORMAL cycle < recovery 2
  (void)mgr.evaluate(1.0, false);
  EXPECT_TRUE(mgr.matchup_open());
  (void)mgr.evaluate(10.0, false);  // re-degrade closes it immediately
  EXPECT_FALSE(mgr.matchup_open());
}

TEST(ModeManagerTest, CountsDwellPerMode) {
  auto policy = quick_policy();
  policy.min_dwell_cycles = 0;
  ModeManager mgr(policy);
  (void)mgr.evaluate(1.0, false);
  (void)mgr.evaluate(10.0, false);  // -> L1 (counted as an L1 cycle)
  (void)mgr.evaluate(10.0, false);
  EXPECT_EQ(mgr.cycles_in(CriticalityMode::kNormal), 1);
  EXPECT_EQ(mgr.cycles_in(CriticalityMode::kDegradedL1), 2);
  EXPECT_EQ(mgr.cycles_in(CriticalityMode::kDegradedL2), 0);
}

TEST(ModePolicyTest, ValidateRejectsInconsistentThresholds) {
  ModePolicy p;
  p.enter_l2_factor = p.enter_l1_factor - 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ModePolicy{};
  p.exit_factor = p.enter_l1_factor + 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ModePolicy{};
  p.recovery_cycles = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ModePolicy{};
  p.matchup_burst = 0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  EXPECT_NO_THROW(ModePolicy{}.validate());
}

TEST(ModePolicyParseTest, PresetsAndOverridesCompose) {
  const auto off = parse_mode_policy("off");
  ASSERT_TRUE(off.has_value());
  EXPECT_FALSE(off->enabled);

  const auto cons = parse_mode_policy("conservative");
  ASSERT_TRUE(cons.has_value());
  EXPECT_TRUE(cons->enabled);
  EXPECT_DOUBLE_EQ(cons->enter_l1_factor, ModePolicy{}.enter_l1_factor);

  const auto tuned = parse_mode_policy("aggressive,dwell=7,burst=2");
  ASSERT_TRUE(tuned.has_value());
  EXPECT_DOUBLE_EQ(tuned->enter_l1_factor, 3.0);  // from the preset
  EXPECT_EQ(tuned->min_dwell_cycles, 7);          // overridden
  EXPECT_EQ(tuned->matchup_burst, 2);

  const auto keyed = parse_mode_policy(
      "enter-l1=4,enter-l2=12,exit=1.5,recovery=6,window=128,backlog=16");
  ASSERT_TRUE(keyed.has_value());
  EXPECT_DOUBLE_EQ(keyed->enter_l2_factor, 12.0);
  EXPECT_EQ(keyed->overload_backlog, 16);
}

TEST(ModePolicyParseTest, RejectsGarbageTotally) {
  EXPECT_FALSE(parse_mode_policy("").has_value());
  EXPECT_FALSE(parse_mode_policy("bogus").has_value());
  EXPECT_FALSE(parse_mode_policy("dwell=ten").has_value());
  EXPECT_FALSE(parse_mode_policy("aggressive,nosuchkey=1").has_value());
  EXPECT_FALSE(parse_mode_policy("dwell=5,aggressive").has_value());
  EXPECT_FALSE(parse_mode_policy("enter-l1=1.0").has_value());  // validate()
  EXPECT_FALSE(parse_mode_policy("exit=9").has_value());  // > enter_l1
  EXPECT_FALSE(parse_mode_policy(",,").has_value());
  // Numbers take the one strict grammar: no '+', whitespace, hex or
  // infinity.
  EXPECT_FALSE(parse_mode_policy("aggressive,dwell=+5").has_value());
  EXPECT_FALSE(parse_mode_policy("enter-l1= 4").has_value());
  EXPECT_FALSE(parse_mode_policy("enter-l2=0x1p4").has_value());
  EXPECT_FALSE(parse_mode_policy("enter-l2=inf").has_value());
}

TEST(CriticalitySpecTest, ParseAndApply) {
  const auto spec = parse_criticality_spec("static=high,dyn=low,7=medium");
  ASSERT_TRUE(spec.has_value());
  ASSERT_TRUE(spec->static_default.has_value());
  EXPECT_EQ(*spec->static_default, Criticality::kHigh);
  ASSERT_EQ(spec->overrides.size(), 1u);
  EXPECT_EQ(spec->overrides[0].first, 7);

  net::Message s;
  s.id = 1;
  s.name = "s";
  s.kind = net::MessageKind::kStatic;
  s.period = sim::millis(10);
  s.deadline = s.period;
  s.size_bits = 64;
  net::Message d = s;
  d.id = 7;
  d.name = "d";
  d.kind = net::MessageKind::kDynamic;
  net::MessageSet set({s, d});
  const auto out = with_criticality(set, *spec);
  EXPECT_EQ(out.messages()[0].criticality, Criticality::kHigh);
  EXPECT_EQ(out.messages()[1].criticality, Criticality::kMedium);  // override
}

TEST(CriticalitySpecTest, RejectsMalformedEntries) {
  EXPECT_FALSE(parse_criticality_spec("static=extreme").has_value());
  EXPECT_FALSE(parse_criticality_spec("=high").has_value());
  EXPECT_FALSE(parse_criticality_spec("seven=high").has_value());
  EXPECT_FALSE(parse_criticality_spec("-3=high").has_value());
  EXPECT_FALSE(parse_criticality_spec("static").has_value());
  // The empty spec is valid and assigns nothing.
  const auto empty = parse_criticality_spec("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_FALSE(empty->static_default.has_value());
  EXPECT_TRUE(empty->overrides.empty());
}

TEST(CriticalitySpecTest, EffectiveCriticalityDefaultsByKind) {
  net::Message s;
  s.kind = net::MessageKind::kStatic;
  net::Message d;
  d.kind = net::MessageKind::kDynamic;
  // Legacy sets (nothing assigned): statics high, dynamics low — the
  // binary degraded semantics.
  EXPECT_EQ(effective_criticality(s, false), Criticality::kHigh);
  EXPECT_EQ(effective_criticality(d, false), Criticality::kLow);
  // Once any level is assigned, the stored level wins verbatim.
  d.criticality = Criticality::kMedium;
  EXPECT_EQ(effective_criticality(d, true), Criticality::kMedium);
  EXPECT_EQ(effective_criticality(s, true), Criticality::kLow);
}

TEST(CriticalitySpecTest, AdmissionFloorOrdersModes) {
  EXPECT_EQ(admission_floor(CriticalityMode::kNormal), Criticality::kLow);
  EXPECT_EQ(admission_floor(CriticalityMode::kDegradedL1),
            Criticality::kMedium);
  EXPECT_EQ(admission_floor(CriticalityMode::kDegradedL2),
            Criticality::kHigh);
}

}  // namespace
}  // namespace coeff::sched
