// Fixed-priority response-time analysis.
//
// Classic Joseph–Pandya recurrence under the synchronous (critical
// instant) assumption: offsets are ignored, which makes the test
// sufficient — a set that passes meets all deadlines for any offsets.
// The exact offset-aware behaviour is checked by simulation
// (PeriodicSchedule) where needed.
#pragma once

#include <optional>
#include <vector>

#include "sched/task.hpp"

namespace coeff::sched {

struct RtaResult {
  bool schedulable = false;
  /// Worst-case response time per priority level; meaningful up to the
  /// first unschedulable level (later levels hold Time::max()).
  std::vector<sim::Time> response_times;
};

/// Run the analysis on a deadline-monotonic-ordered set.
[[nodiscard]] RtaResult response_time_analysis(const TaskSet& set);

/// Worst-case response time of a single level, or nullopt if it diverges
/// past its deadline.
[[nodiscard]] std::optional<sim::Time> response_time_of_level(
    const TaskSet& set, std::size_t level);

}  // namespace coeff::sched
