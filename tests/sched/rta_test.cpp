#include "sched/rta.hpp"

#include <gtest/gtest.h>

namespace coeff::sched {
namespace {

PeriodicTask task(int id, int wcet_ms, int period_ms, int deadline_ms = 0) {
  PeriodicTask t;
  t.id = id;
  t.wcet = sim::millis(wcet_ms);
  t.period = sim::millis(period_ms);
  t.deadline = deadline_ms > 0 ? sim::millis(deadline_ms)
                               : sim::millis(period_ms);
  return t;
}

TEST(RtaTest, TextbookExample) {
  // Classic: C=(1,2,3), T=(4,8,16). R1=1, R2=3, R3=3+2*1+1*2... iterate:
  // R3: 3 -> 3+1+2=6 -> 3+2+2=7... converge at 10? Compute via the
  // implementation and check against hand iteration:
  // R3: w=3; w=3+ceil(3/4)*1+ceil(3/8)*2=3+1+2=6; w=3+2+2=7; w=3+2+2=7. ✓
  TaskSet set({task(1, 1, 4), task(2, 2, 8), task(3, 3, 16)});
  const auto result = response_time_analysis(set);
  EXPECT_TRUE(result.schedulable);
  ASSERT_EQ(result.response_times.size(), 3u);
  EXPECT_EQ(result.response_times[0], sim::millis(1));
  EXPECT_EQ(result.response_times[1], sim::millis(3));
  EXPECT_EQ(result.response_times[2], sim::millis(7));
}

TEST(RtaTest, HighestPriorityResponseIsItsWcet) {
  TaskSet set({task(1, 2, 10)});
  const auto r = response_time_of_level(set, 0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, sim::millis(2));
}

TEST(RtaTest, UnschedulableSetDetected) {
  // Utilization 1.5 cannot fit.
  TaskSet set({task(1, 3, 4), task(2, 3, 4, 4)});
  const auto result = response_time_analysis(set);
  EXPECT_FALSE(result.schedulable);
  EXPECT_EQ(result.response_times[1], sim::Time::max());
}

TEST(RtaTest, DeadlineTighterThanResponseFails) {
  // U = 0.886 < 1 but the lowest level diverges past its deadline:
  // R3 = 2 -> 6 -> 8 -> 10 > 8.
  TaskSet set({task(1, 2, 5), task(2, 2, 7, 7), task(3, 2, 10, 8)});
  const auto result = response_time_analysis(set);
  EXPECT_LT(set.utilization(), 1.0);
  EXPECT_FALSE(result.schedulable);
  EXPECT_EQ(result.response_times[2], sim::Time::max());
}

TEST(RtaTest, ExactBoundaryIsSchedulable) {
  TaskSet set({task(1, 2, 10), task(2, 2, 20, 4)});
  const auto result = response_time_analysis(set);
  EXPECT_TRUE(result.schedulable);
  EXPECT_EQ(result.response_times[1], sim::millis(4));
}

TEST(RtaTest, FullUtilizationHarmonicSetSchedulable) {
  // Harmonic periods schedule up to U = 1.
  TaskSet set({task(1, 1, 2), task(2, 2, 4)});
  EXPECT_NEAR(set.utilization(), 1.0, 1e-12);
  const auto result = response_time_analysis(set);
  EXPECT_TRUE(result.schedulable);
  EXPECT_EQ(result.response_times[1], sim::millis(4));
}

TEST(RtaTest, BelowLiuLaylandAlwaysPasses) {
  // Any 3-task set below 0.7798 utilization (the Liu–Layland bound
  // 3(2^{1/3} - 1)) must pass the exact test.
  TaskSet set({task(1, 1, 5), task(2, 2, 10), task(3, 3, 20)});
  EXPECT_LT(set.utilization(), 0.7798);
  EXPECT_TRUE(response_time_analysis(set).schedulable);
}

TEST(RtaTest, ResponseTimesMonotoneInPriority) {
  TaskSet set({task(1, 1, 4), task(2, 1, 8), task(3, 1, 16), task(4, 1, 32)});
  const auto result = response_time_analysis(set);
  ASSERT_TRUE(result.schedulable);
  for (std::size_t i = 1; i < result.response_times.size(); ++i) {
    EXPECT_GE(result.response_times[i], result.response_times[i - 1]);
  }
}

}  // namespace
}  // namespace coeff::sched
