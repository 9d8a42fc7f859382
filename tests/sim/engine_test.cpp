#include "support/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace coeff::sim {
namespace {

TEST(EngineTest, ClockStartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), Time::zero());
}

TEST(EngineTest, RunUntilAdvancesClockToDeadline) {
  Engine e;
  e.run_until(millis(5));
  EXPECT_EQ(e.now(), millis(5));
}

TEST(EngineTest, EventsFireAtTheirTimestamp) {
  Engine e;
  Time observed;
  e.schedule_at(micros(700), [&] { observed = e.now(); });
  e.run_until(millis(1));
  EXPECT_EQ(observed, micros(700));
}

TEST(EngineTest, ScheduleAfterUsesRelativeDelay) {
  Engine e;
  e.run_until(millis(1));
  Time observed;
  e.schedule_after(micros(250), [&] { observed = e.now(); });
  e.run_until(millis(2));
  EXPECT_EQ(observed, millis(1) + micros(250));
}

TEST(EngineTest, SchedulingInThePastThrows) {
  Engine e;
  e.run_until(millis(1));
  EXPECT_THROW(e.schedule_at(micros(1), [] {}), std::invalid_argument);
  EXPECT_THROW(e.schedule_after(micros(1) - micros(2), [] {}),
               std::invalid_argument);
}

TEST(EngineTest, RunUntilLeavesLaterEventsPending) {
  Engine e;
  bool fired = false;
  e.schedule_at(millis(10), [&] { fired = true; });
  e.run_until(millis(5));
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.pending_events(), 1u);
  e.run_until(millis(10));
  EXPECT_TRUE(fired);
}

TEST(EngineTest, EventsCanScheduleMoreEvents) {
  Engine e;
  std::vector<Time> fires;
  // A self-rescheduling 1 ms heartbeat.
  std::function<void()> beat = [&] {
    fires.push_back(e.now());
    if (fires.size() < 5) e.schedule_after(millis(1), beat);
  };
  e.schedule_at(Time::zero(), beat);
  e.run_until(millis(10));
  ASSERT_EQ(fires.size(), 5u);
  for (std::size_t i = 0; i < fires.size(); ++i) {
    EXPECT_EQ(fires[i], millis(static_cast<std::int64_t>(i)));
  }
}

TEST(EngineTest, RunToCompletionDrainsEverything) {
  Engine e;
  int count = 0;
  for (int i = 0; i < 100; ++i) {
    e.schedule_at(micros(i), [&] { ++count; });
  }
  EXPECT_EQ(e.run_to_completion(), 100u);
  EXPECT_EQ(count, 100);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(EngineTest, StepFiresExactlyOneEvent) {
  Engine e;
  int count = 0;
  e.schedule_at(micros(1), [&] { ++count; });
  e.schedule_at(micros(2), [&] { ++count; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(e.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(e.step());
}

TEST(EngineTest, CancelPreventsFiring) {
  Engine e;
  bool fired = false;
  const auto token = e.schedule_at(micros(5), [&] { fired = true; });
  EXPECT_TRUE(e.cancel(token));
  e.run_until(millis(1));
  EXPECT_FALSE(fired);
}

TEST(EngineTest, EventsFiredCounterAccumulates) {
  Engine e;
  e.schedule_at(micros(1), [] {});
  e.schedule_at(micros(2), [] {});
  e.run_until(millis(1));
  EXPECT_EQ(e.events_fired(), 2u);
}

TEST(EngineTest, NextEventTimeTracksQueueHead) {
  Engine e;
  EXPECT_EQ(e.next_event_time(), Time::max());
  EXPECT_EQ(e.next_event_time(millis(5)), millis(5));  // explicit fallback
  e.schedule_at(micros(30), [] {});
  e.schedule_at(micros(10), [] {});
  EXPECT_EQ(e.next_event_time(), micros(10));
  e.run_until(micros(20));
  EXPECT_EQ(e.next_event_time(), micros(30));
  e.run_until(micros(40));
  EXPECT_EQ(e.next_event_time(), Time::max());
}

// The cycle walk elides run_until whenever next_event_time lies past
// the chunk; that is only sound if a queue-empty engine reports a time
// no event can beat and scheduling from inside a callback updates the
// head immediately.
TEST(EngineTest, NextEventTimeSeesEventsScheduledFromCallbacks) {
  Engine e;
  e.schedule_at(micros(10), [&] { e.schedule_at(micros(25), [] {}); });
  e.run_until(micros(15));
  EXPECT_EQ(e.next_event_time(), micros(25));
}

TEST(EngineTest, ClockNeverMovesBackwards) {
  Engine e;
  std::vector<Time> stamps;
  for (int i = 0; i < 50; ++i) {
    e.schedule_at(micros(100 - i), [&] { stamps.push_back(e.now()); });
  }
  e.run_to_completion();
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    EXPECT_LE(stamps[i - 1], stamps[i]);
  }
}

}  // namespace
}  // namespace coeff::sim
