#include "sched/slack_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

namespace coeff::sched {
namespace {

PeriodicTask task(int id, int wcet_ms, int period_ms, int deadline_ms = 0,
                  int offset_ms = 0) {
  PeriodicTask t;
  t.id = id;
  t.wcet = sim::millis(wcet_ms);
  t.period = sim::millis(period_ms);
  t.deadline = deadline_ms > 0 ? sim::millis(deadline_ms)
                               : sim::millis(period_ms);
  t.offset = sim::millis(offset_ms);
  return t;
}

TEST(SlackTableTest, SchedulableFlag) {
  EXPECT_TRUE(SlackTable(TaskSet({task(1, 2, 10)})).schedulable());
  EXPECT_FALSE(
      SlackTable(TaskSet({task(1, 3, 4), task(2, 3, 8, 8)})).schedulable());
}

TEST(SlackTableTest, CumulativeIdleMatchesSchedule) {
  SlackTable table(TaskSet({task(1, 2, 10)}));
  EXPECT_EQ(table.cumulative_idle(sim::millis(2)), sim::Time::zero());
  EXPECT_EQ(table.cumulative_idle(sim::millis(10)), sim::millis(8));
  EXPECT_EQ(table.cumulative_idle(sim::millis(12)), sim::millis(8));
  EXPECT_EQ(table.cumulative_idle(sim::millis(20)), sim::millis(16));
}

TEST(SlackTableTest, IdleBetween) {
  SlackTable table(TaskSet({task(1, 2, 10)}));
  EXPECT_EQ(table.idle_between(sim::millis(0), sim::millis(10)),
            sim::millis(8));
  EXPECT_EQ(table.idle_between(sim::millis(1), sim::millis(2)),
            sim::Time::zero());
  EXPECT_EQ(table.idle_between(sim::millis(5), sim::millis(5)),
            sim::Time::zero());
}

TEST(SlackTableTest, PeriodicExtensionBeyondTable) {
  // Queries far beyond 3H must extend periodically.
  SlackTable table(TaskSet({task(1, 2, 10)}));
  const auto far = table.cumulative_idle(sim::millis(1000));
  EXPECT_EQ(far, sim::millis(800));
}

TEST(SlackTableTest, CumulativeIdleSteadyStateFarBeyondTable) {
  // At t = kH + eps for large k, cumulative idle must equal the folded
  // value plus whole-hyperperiod increments — no drift, no overflow of
  // the fold for k in the millions.
  SlackTable table(TaskSet({task(1, 2, 10), task(2, 3, 20, 20, 3)}));
  ASSERT_TRUE(table.schedulable());
  const sim::Time h = table.hyperperiod();
  const sim::Time per_h =
      table.cumulative_idle(h * 2) - table.cumulative_idle(h);
  for (const std::int64_t k : {3LL, 7LL, 1000LL, 1'000'000LL}) {
    for (const sim::Time eps : {sim::Time::zero(), sim::micros(1),
                                sim::millis(4), h - sim::micros(1)}) {
      EXPECT_EQ(table.cumulative_idle(h * k + eps),
                table.cumulative_idle(h + eps) + per_h * (k - 1))
          << "k=" << k << " eps=" << eps.ns();
    }
  }
}

TEST(SlackTableTest, NegativeTimeThrows) {
  SlackTable table(TaskSet({task(1, 2, 10)}));
  EXPECT_THROW((void)table.cumulative_idle(sim::millis(-1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace coeff::sched
