// Exact fixed-priority preemptive schedule construction.
//
// Builds the timeline of a periodic task set (with offsets) over a
// finite horizon. The result carries per-job finish times and the
// execution timeline, from which SlackTable keeps the idle intervals
// and tests obtain an exact oracle.
//
// min_idle_in_window answers the one question the probabilistic
// verifier asks of the full schedule without building it: processor
// idle does not depend on priorities, so one sweep over the merged
// release stream (one lane per distinct period) finds the same idle
// intervals.
#pragma once

#include <cstdint>
#include <vector>

#include "sched/task.hpp"
#include "sim/time.hpp"

namespace coeff::sched {

/// Priority level of an execution segment; tasks use their level index
/// (0 = highest), idle runs below all.
inline constexpr int kIdleLevel = 1'000'000;

struct JobRecord {
  int task_id = 0;
  std::size_t level = 0;       ///< priority level of the task
  std::int64_t index = 0;      ///< k-th job (0-based)
  sim::Time release;
  sim::Time abs_deadline;
  sim::Time finish;            ///< Time::max() if unfinished at horizon
  [[nodiscard]] bool missed() const { return finish > abs_deadline; }
};

struct TimelineSegment {
  sim::Time start;
  sim::Time end;
  int level = kIdleLevel;  ///< task level, or kIdleLevel
};

struct ScheduleResult {
  std::vector<JobRecord> jobs;          ///< release order per task level
  std::vector<TimelineSegment> timeline;  ///< contiguous, covers [0, horizon)
  bool any_deadline_missed = false;

  /// Level-i idle time accumulated in [from, to): time where no task of
  /// level <= i executes.
  [[nodiscard]] sim::Time level_idle(std::size_t level, sim::Time from,
                                     sim::Time to) const;

  /// Finish time of a specific job, or Time::max() if absent/unfinished.
  [[nodiscard]] sim::Time finish_of(std::size_t level,
                                    std::int64_t index) const;
};

/// Simulate the set over [0, horizon).
[[nodiscard]] ScheduleResult simulate_periodic(const TaskSet& set,
                                               sim::Time horizon);

/// Guaranteed full-schedule idle inside ANY window of length `window`:
/// min over start instants a of the idle in [a, a+window), under the
/// periodic extension SlackTable uses (exact up to 2H, then the idle of
/// [H, 2H) per wrap). Equal to SlackTable(set).min_idle_in_window(window)
/// in O((releases over H + releases in the first busy period after H) *
/// log distinct periods + idle intervals) time: the release sweep merges
/// one lane per distinct period and stops at the first drain after the
/// releases at H, the rest of [H, 2H) is a copy of the first
/// hyperperiod, and the candidate windows start at H and at each idle
/// end in (H, 2H), one evaluation each (DESIGN.md §14). Memory is
/// O(n + idle intervals).
/// Throws what SlackTable's constructor throws: std::invalid_argument
/// for an invalid set, std::domain_error for a hyperperiod past one hour.
[[nodiscard]] sim::Time min_idle_in_window(const TaskSet& set,
                                           sim::Time window);

}  // namespace coeff::sched
