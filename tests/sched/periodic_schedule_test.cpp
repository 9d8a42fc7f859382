#include "sched/periodic_schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/experiment.hpp"
#include "net/workloads.hpp"
#include "sched/slack_table.hpp"
#include "sim/random.hpp"

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

TEST(PeriodicScheduleTest, SingleTaskRunsImmediately) {
  TaskSet set({task(1, 2, 10)});
  const auto result = simulate_periodic(set, sim::millis(20));
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.jobs[0].release, sim::Time::zero());
  EXPECT_EQ(result.jobs[0].finish, sim::millis(2));
  EXPECT_EQ(result.jobs[1].release, sim::millis(10));
  EXPECT_EQ(result.jobs[1].finish, sim::millis(12));
  EXPECT_FALSE(result.any_deadline_missed);
}

TEST(PeriodicScheduleTest, TimelineCoversHorizonContiguously) {
  TaskSet set({task(1, 2, 10), task(2, 3, 20)});
  const auto result = simulate_periodic(set, sim::millis(40));
  ASSERT_FALSE(result.timeline.empty());
  EXPECT_EQ(result.timeline.front().start, sim::Time::zero());
  EXPECT_EQ(result.timeline.back().end, sim::millis(40));
  for (std::size_t i = 1; i < result.timeline.size(); ++i) {
    EXPECT_EQ(result.timeline[i].start, result.timeline[i - 1].end);
  }
}

TEST(PeriodicScheduleTest, PreemptionByHigherPriority) {
  // Low-priority (period 20) starts at 0; high-priority releases at 1
  // and preempts.
  TaskSet set({task(1, 2, 5, 5, 1), task(2, 4, 20)});
  const auto result = simulate_periodic(set, sim::millis(10));
  // Task 2 (level 1) runs [0,1), preempted [1,3), resumes [3,6).
  EXPECT_EQ(result.finish_of(1, 0), sim::millis(6));
  // Task 1 job 0 runs [1,3).
  EXPECT_EQ(result.finish_of(0, 0), sim::millis(3));
}

TEST(PeriodicScheduleTest, ExecutionConservation) {
  // Total busy time per level equals jobs finished x wcet.
  TaskSet set({task(1, 1, 4), task(2, 2, 8), task(3, 3, 16)});
  const auto result = simulate_periodic(set, sim::millis(32));
  std::vector<sim::Time> busy(3, sim::Time::zero());
  for (const auto& seg : result.timeline) {
    if (seg.level >= 0 && seg.level < 3) {
      busy[static_cast<std::size_t>(seg.level)] += seg.end - seg.start;
    }
  }
  EXPECT_EQ(busy[0], sim::millis(8 * 1));   // 8 jobs of 1 ms
  EXPECT_EQ(busy[1], sim::millis(4 * 2));   // 4 jobs of 2 ms
  EXPECT_EQ(busy[2], sim::millis(2 * 3));   // 2 jobs of 3 ms
}

TEST(PeriodicScheduleTest, DeadlineMissDetected) {
  TaskSet set({task(1, 3, 4), task(2, 3, 8, 8)});
  const auto result = simulate_periodic(set, sim::millis(16));
  EXPECT_TRUE(result.any_deadline_missed);
}

TEST(PeriodicScheduleTest, OffsetsDelayFirstRelease) {
  TaskSet set({task(1, 1, 10, 10, 4)});
  const auto result = simulate_periodic(set, sim::millis(20));
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.jobs[0].release, sim::millis(4));
  EXPECT_EQ(result.jobs[0].finish, sim::millis(5));
  EXPECT_EQ(result.jobs[1].release, sim::millis(14));
}

TEST(PeriodicScheduleTest, LevelIdleAccounting) {
  TaskSet set({task(1, 2, 10)});
  const auto result = simulate_periodic(set, sim::millis(10));
  // Level 0 idle = 8 ms of the 10 ms horizon.
  EXPECT_EQ(result.level_idle(0, sim::Time::zero(), sim::millis(10)),
            sim::millis(8));
  // Restricted window.
  EXPECT_EQ(result.level_idle(0, sim::millis(1), sim::millis(3)),
            sim::millis(1));
}

TEST(PeriodicScheduleTest, InsertedBlockRunsAboveEverything) {
  TaskSet set({task(1, 2, 10)});
  const std::vector<InsertedBlock> blocks{{sim::Time::zero(), sim::millis(1)}};
  const auto result = simulate_periodic(set, sim::millis(10), blocks);
  // The periodic job is displaced by 1 ms.
  EXPECT_EQ(result.finish_of(0, 0), sim::millis(3));
  ASSERT_FALSE(result.timeline.empty());
  EXPECT_EQ(result.timeline.front().level, kInsertedLevel);
}

TEST(PeriodicScheduleTest, InsertedBlockInIdleTimeHarmless) {
  TaskSet set({task(1, 2, 10)});
  const std::vector<InsertedBlock> blocks{{sim::millis(5), sim::millis(2)}};
  const auto result = simulate_periodic(set, sim::millis(20), blocks);
  EXPECT_EQ(result.finish_of(0, 0), sim::millis(2));   // untouched
  EXPECT_EQ(result.finish_of(0, 1), sim::millis(12));  // untouched
  EXPECT_FALSE(result.any_deadline_missed);
}

TEST(PeriodicScheduleTest, UnsortedInsertedBlocksRejected) {
  TaskSet set({task(1, 2, 10)});
  const std::vector<InsertedBlock> blocks{{sim::millis(5), sim::millis(1)},
                                          {sim::millis(2), sim::millis(1)}};
  EXPECT_THROW((void)simulate_periodic(set, sim::millis(10), blocks),
               std::invalid_argument);
}

TEST(PeriodicScheduleTest, EqualPriorityIsFifoWithinLevel) {
  // Same deadline -> one level each, ordered by id; but FIFO applies to
  // jobs of the same task across releases.
  TaskSet set({task(1, 6, 10, 10)});
  const auto result = simulate_periodic(set, sim::millis(30));
  EXPECT_EQ(result.finish_of(0, 0), sim::millis(6));
  EXPECT_EQ(result.finish_of(0, 1), sim::millis(16));
  EXPECT_EQ(result.finish_of(0, 2), sim::millis(26));
}

TEST(PeriodicScheduleTest, UnfinishedJobsReportMax) {
  TaskSet set({task(1, 5, 10)});
  const auto result = simulate_periodic(set, sim::millis(12));
  // Second job released at 10 ms cannot finish by 12 ms.
  EXPECT_EQ(result.finish_of(0, 1), sim::Time::max());
}

TEST(PeriodicScheduleTest, BusyHorizonFullyPacked) {
  // Utilization exactly 1 with harmonic periods: no idle at the lowest
  // level.
  TaskSet set({task(1, 1, 2), task(2, 2, 4)});
  const auto result = simulate_periodic(set, sim::millis(40));
  EXPECT_EQ(result.level_idle(1, sim::Time::zero(), sim::millis(40)),
            sim::Time::zero());
  EXPECT_FALSE(result.any_deadline_missed);
}

/// How random_set draws periods: independently per task, one period
/// for every task, or a different period for each task (at most 8).
/// The last two are the release sweep's extremes: one per-period lane
/// holding every task, and one lane per task.
enum class Periods { kMixed, kOne, kDistinct };

/// A random set whose hyperperiod divides 120 ticks, so the reference
/// table stays small: 1-10 tasks, per-task utilization split from `u`,
/// deadlines in (0, T] (they only move priorities), offsets in [0, T]
/// with both ends often hit exactly (an offset of T leaves the first
/// hyperperiod one release short).
TaskSet random_set(sim::Rng& rng, double u,
                   Periods periods = Periods::kMixed,
                   sim::Time tick = sim::micros(1)) {
  std::int64_t periods_in_ticks[] = {2, 3, 4, 5, 6, 8, 10, 12};
  int n = static_cast<int>(rng.uniform_int(1, 10));
  if (periods != Periods::kMixed) {
    for (std::int64_t i = 7; i > 0; --i) {
      std::swap(periods_in_ticks[i], periods_in_ticks[rng.uniform_int(0, i)]);
    }
  }
  if (periods == Periods::kDistinct) n = std::min(n, 8);
  std::vector<double> share(static_cast<std::size_t>(n));
  double sum = 0.0;
  for (double& w : share) sum += w = rng.uniform(0.1, 1.0);
  std::vector<PeriodicTask> tasks;
  for (int i = 0; i < n; ++i) {
    PeriodicTask t;
    t.id = i;
    t.period =
        tick * (periods == Periods::kMixed
                    ? periods_in_ticks[rng.uniform_int(0, 7)]
                : periods == Periods::kOne ? periods_in_ticks[0]
                                           : periods_in_ticks[i]);
    const auto wcet = static_cast<std::int64_t>(
        u * share[static_cast<std::size_t>(i)] / sum *
        static_cast<double>(t.period.ns()));
    t.wcet = sim::nanos(std::clamp<std::int64_t>(wcet, 1, t.period.ns()));
    t.deadline = sim::nanos(rng.uniform_int(1, t.period.ns()));
    const std::int64_t end = rng.uniform_int(0, 3);
    t.offset = end == 0   ? sim::Time::zero()
               : end == 1 ? t.period
                          : sim::nanos(rng.uniform_int(0, t.period.ns()));
    tasks.push_back(t);
  }
  return TaskSet(std::move(tasks));
}

TEST(PeriodicSchedule, MinIdleInWindowHandComputed) {
  // 2 ms busy every 10 ms: the worst 5 ms window covers the whole job.
  const TaskSet set({task(1, 2, 10)});
  EXPECT_EQ(min_idle_in_window(set, sim::millis(5)), sim::millis(3));
  EXPECT_EQ(min_idle_in_window(set, sim::millis(10)), sim::millis(8));
  EXPECT_EQ(min_idle_in_window(set, sim::millis(25)), sim::millis(19));
}

// The sweep must give exactly the table's value: same horizon, same
// periodic extension, and a candidate set that differs only by the
// busy/busy boundaries, which are never a minimum. The first 5,000 sets
// draw periods per task; the last 2,000 alternate between one period
// for the whole set and a different period for every task.
TEST(PeriodicSchedule, MinIdleInWindowMatchesSlackTable) {
  sim::Rng rng(2026);
  int with_idle = 0;
  for (int trial = 0; trial < 7000; ++trial) {
    // Half the sets anywhere from light load to overload, half near
    // U = 1, where the idle pattern is sparsest.
    const double u = trial % 2 == 0 ? rng.uniform(0.05, 1.3)
                                    : rng.uniform(0.8, 1.05);
    const Periods periods = trial < 5000        ? Periods::kMixed
                            : trial / 2 % 2 == 0 ? Periods::kOne
                                                 : Periods::kDistinct;
    const TaskSet set = random_set(rng, u, periods);
    const SlackTable table(set);
    const sim::Time h = table.hyperperiod();
    for (const sim::Time window :
         {sim::nanos(1), sim::nanos(rng.uniform_int(1, h.ns())), h,
          h + sim::nanos(rng.uniform_int(1, 2 * h.ns()))}) {
      const sim::Time got = min_idle_in_window(set, window);
      ASSERT_EQ(got, table.min_idle_in_window(window))
          << "trial " << trial << ", window " << window.ns() << " ns";
      with_idle += got > sim::Time::zero() ? 1 : 0;
    }
  }
  // Guard against a vacuous comparison of zeros.
  EXPECT_GT(with_idle, 5000);
}

// One hand-built set per way the sweep can end after H, each checked
// against the table and a value worked out by hand from the steady
// pattern (the schedule from H on, which repeats every H).
TEST(PeriodicSchedule, MinIdleInWindowSteadyState) {
  struct Case {
    const char* name;
    TaskSet set;
    // H = 10 ms in every case, so a 25 ms window holds two whole
    // periods of the steady pattern plus its worst 5 ms.
    sim::Time at_1ns, at_h, at_25ms;
  };
  const Case cases[] = {
      // (a) Idle at H, and task 1's offset equals its period: its first
      // release, at H, has no twin at 0. From H on each 10 ms holds 3 ms
      // busy then 7 ms idle; [0, H) held only 1 ms of work.
      {"empty at H, offset = period",
       TaskSet({task(1, 2, 10, 10, 10), task(2, 1, 10)}), sim::Time::zero(),
       sim::millis(7), sim::millis(2 * 7 + 2)},
      // (b) Task 2's job from 8 ms runs past H, task 1 joins at H, and
      // the backlog drains at 13 ms, exactly when task 3 releases. From
      // H on: 4 ms busy, 4 ms idle, then 2 ms busy that run on into the
      // next period's 4, so the busy runs are 6 ms long.
      {"backlog past H drains on a release",
       TaskSet({task(1, 2, 10, 10, 10), task(2, 3, 10, 10, 8),
                task(3, 1, 10, 10, 3)}),
       sim::Time::zero(), sim::millis(4), sim::millis(2 * 4 + 0)},
      // (c) U = 1.1: idle only in [0, 4 ms); from 4 ms on the backlog
      // never drains, so the sweep ends at 2H and no window holds idle.
      {"U > 1",
       TaskSet({task(1, 6, 10, 10, 4), task(2, 5, 10, 10, 10)}),
       sim::Time::zero(), sim::Time::zero(), sim::Time::zero()},
      // (d) One task with offset = period = H: [0, H) is all idle, and
      // from H on each 10 ms holds 2 ms busy then 8 ms idle.
      {"first release at H", TaskSet({task(1, 2, 10, 10, 10)}),
       sim::Time::zero(), sim::millis(8), sim::millis(2 * 8 + 3)},
  };
  for (const Case& c : cases) {
    const SlackTable table(c.set);
    ASSERT_EQ(table.hyperperiod(), sim::millis(10)) << c.name;
    const std::pair<sim::Time, sim::Time> windows[] = {
        {sim::nanos(1), c.at_1ns},
        {sim::millis(10), c.at_h},
        {sim::millis(25), c.at_25ms},
    };
    for (const auto& [window, expected] : windows) {
      EXPECT_EQ(min_idle_in_window(c.set, window).ns(), expected.ns())
          << c.name << ", window " << window.ns() << " ns";
      EXPECT_EQ(table.min_idle_in_window(window).ns(), expected.ns())
          << c.name << ", window " << window.ns() << " ns";
    }
  }
}

// An oracle that shares no candidate rule: every integer start a in
// [H, 2H), on nanosecond periods (H <= 120 ns), summing the idle of
// simulate_periodic's timeline one nanosecond at a time, with the
// pattern of [H, 2H) repeated past 2H.
TEST(PeriodicSchedule, MinIdleInWindowMatchesBruteForce) {
  sim::Rng rng(7);
  int with_idle = 0;
  int overloaded = 0;
  for (int trial = 0; trial < 2400; ++trial) {
    const double u = trial % 2 == 0 ? rng.uniform(0.05, 1.3)
                                    : rng.uniform(0.8, 1.05);
    const Periods periods = trial % 3 == 0   ? Periods::kMixed
                            : trial % 3 == 1 ? Periods::kOne
                                             : Periods::kDistinct;
    const TaskSet set = random_set(rng, u, periods, sim::nanos(1));
    const std::int64_t h = set.hyperperiod().ns();
    std::int64_t work = 0;
    for (const PeriodicTask& t : set.tasks()) {
      work += t.wcet.ns() * (h / t.period.ns());
    }
    overloaded += work > h ? 1 : 0;

    std::vector<int> idle(static_cast<std::size_t>(2 * h), 0);
    for (const TimelineSegment& seg :
         simulate_periodic(set, sim::nanos(2 * h)).timeline) {
      if (seg.level != kIdleLevel) continue;
      for (std::int64_t t = seg.start.ns(); t < seg.end.ns(); ++t) {
        idle[static_cast<std::size_t>(t)] = 1;
      }
    }
    auto idle_at = [&](std::int64_t t) {
      return idle[static_cast<std::size_t>(t < 2 * h ? t : h + (t - h) % h)];
    };
    for (const std::int64_t window :
         {std::int64_t{1}, rng.uniform_int(1, h), rng.uniform_int(h, 3 * h),
          3 * h}) {
      // Slide [a, a + window) from a = H to 2H - 1.
      std::int64_t sum = 0;
      for (std::int64_t t = h; t < h + window; ++t) sum += idle_at(t);
      std::int64_t expected = sum;
      for (std::int64_t a = h + 1; a < 2 * h; ++a) {
        sum += idle_at(a - 1 + window) - idle_at(a - 1);
        expected = std::min(expected, sum);
      }
      ASSERT_EQ(min_idle_in_window(set, sim::nanos(window)).ns(), expected)
          << "trial " << trial << ", window " << window << " ns";
      with_idle += expected > 0 ? 1 : 0;
    }
  }
  // Guard against a vacuous comparison of zeros or of light sets only.
  EXPECT_GT(with_idle, 2000);
  EXPECT_GT(overloaded, 200);
}

/// A static set as the wire-speed task set the probabilistic verifier
/// analyzes.
TaskSet wire_set(const net::MessageSet& statics,
                 const flexray::ClusterConfig& cluster) {
  std::vector<PeriodicTask> tasks;
  for (const auto& m : statics.messages()) {
    PeriodicTask t;
    t.id = m.id;
    t.wcet = cluster.transmission_time(m.size_bits);
    t.period = m.period;
    t.offset = m.offset;
    t.deadline = m.deadline;
    tasks.push_back(t);
  }
  return TaskSet(std::move(tasks));
}

TEST(PeriodicSchedule, MinIdleInWindowMatchesSlackTableOnShippedWorkloads) {
  const flexray::ClusterConfig apps = core::paper_cluster_apps(25);
  const flexray::ClusterConfig suite = core::paper_cluster_dynamic_suite(50);
  sim::Rng rng(42);  // coeffctl's default seed for --workload synthetic
  net::SyntheticStaticOptions synthetic;
  synthetic.count = 100;
  const std::vector<std::pair<net::MessageSet, flexray::ClusterConfig>>
      workloads = {
          {net::brake_by_wire(), apps},
          {net::adaptive_cruise(), apps},
          {net::brake_by_wire().merged_with(net::adaptive_cruise()), apps},
          {net::synthetic_static(synthetic, rng), suite},
      };
  for (const auto& [statics, cluster] : workloads) {
    const TaskSet set = wire_set(statics, cluster);
    const SlackTable table(set);
    const sim::Time cycle = cluster.cycle_duration();
    for (const sim::Time window :
         {sim::nanos(1), cluster.static_slot_duration(), cycle, cycle * 7,
          table.hyperperiod() + cycle}) {
      EXPECT_EQ(min_idle_in_window(set, window),
                table.min_idle_in_window(window))
          << statics.size() << " messages, window " << window.ns() << " ns";
    }
  }
}

TEST(PeriodicSchedule, MinIdleInWindowEdgeCases) {
  const TaskSet light({task(1, 2, 10)});
  const TaskSet empty;
  for (const TaskSet* set : {&light, &empty}) {
    EXPECT_EQ(min_idle_in_window(*set, sim::Time::zero()), sim::Time::zero());
    EXPECT_EQ(min_idle_in_window(*set, sim::nanos(-1)), sim::Time::zero());
    EXPECT_EQ(min_idle_in_window(*set, sim::millis(3)),
              SlackTable(*set).min_idle_in_window(sim::millis(3)));
  }
  // No tasks: every window is all idle.
  EXPECT_EQ(min_idle_in_window(empty, sim::millis(3)), sim::millis(3));

  // U = 1 with zero offsets: never idle, whatever the window.
  const TaskSet full({task(1, 1, 2), task(2, 2, 4)});
  for (const sim::Time window :
       {sim::nanos(1), sim::millis(3), sim::millis(9)}) {
    EXPECT_EQ(min_idle_in_window(full, window), sim::Time::zero());
  }

  // Throws what the table's constructor throws, before the window check.
  const TaskSet hour_plus(
      {task(1, 1, 61), task(2, 1, 67), task(3, 1, 71), task(4, 1, 73)});
  EXPECT_THROW((void)SlackTable(hour_plus), std::domain_error);
  EXPECT_THROW((void)min_idle_in_window(hour_plus, sim::millis(1)),
               std::domain_error);
  EXPECT_THROW((void)min_idle_in_window(hour_plus, sim::Time::zero()),
               std::domain_error);
  const TaskSet invalid({task(1, 11, 10)});
  EXPECT_THROW((void)SlackTable(invalid), std::invalid_argument);
  EXPECT_THROW((void)min_idle_in_window(invalid, sim::millis(1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace coeff::sched
