// Static slack table: the idle curve of the exact periodic schedule.
//
// Built offline from simulate_periodic over three hyperperiods: [0, H)
// captures the offset-induced transient, [H, 3H) the repeating pattern.
// The table keeps only the schedule's idle intervals (no task runs) and
// answers idle time from them, exact up to 2H and extended beyond by the
// idle of [H, 2H) per wrap.
//
// No shipped run reads it. It is the reference that
// sched::min_idle_in_window is tested against, and perfbench's traced
// analyze-cold pass builds and queries it (DESIGN.md §3). CoEfficient
// steals idle (slot, channel) pairs of the TDMA table, not this curve
// (DESIGN.md §2, §12).
#pragma once

#include <memory>
#include <vector>

#include "sched/task.hpp"
#include "sim/time.hpp"

namespace coeff::sched {

class SlackTable {
 public:
  /// Builds the schedule and keeps its idle intervals. Throws what
  /// TaskSet::validate and TaskSet::hyperperiod throw. `schedulable()`
  /// reports whether the periodic schedule met every deadline in 3H.
  explicit SlackTable(const TaskSet& set);

  /// A fresh table on every call. It is kept only because perfbench's
  /// traced analyze-cold pass (perfbench/analyze_cold.cpp) names it.
  [[nodiscard]] static std::shared_ptr<const SlackTable> shared(
      const TaskSet& set);

  [[nodiscard]] bool schedulable() const { return schedulable_; }
  [[nodiscard]] sim::Time hyperperiod() const { return hyperperiod_; }

  /// Idle in [0, t), extended periodically beyond 2H. Throws
  /// std::invalid_argument for a negative t.
  [[nodiscard]] sim::Time cumulative_idle(sim::Time t) const;

  /// Idle in [a, b), periodic extension included; zero when b <= a.
  [[nodiscard]] sim::Time idle_between(sim::Time a, sim::Time b) const;

  /// Guaranteed idle inside ANY window of length `window`: the min over
  /// start instants a of the idle in [a, a+window) under the periodic
  /// extension. sched::min_idle_in_window computes the same value
  /// without the table; this member is its reference in the tests.
  [[nodiscard]] sim::Time min_idle_in_window(sim::Time window) const;

 private:
  // The schedule's maximal idle intervals over [0, 3H), in time order.
  std::vector<sim::Time> idle_start_;
  std::vector<sim::Time> idle_end_;
  std::vector<sim::Time> idle_before_;  ///< idle in [0, idle_start_[k])
  sim::Time idle_per_hyperperiod_;      ///< idle in [H, 2H)
  sim::Time hyperperiod_;
  bool schedulable_ = false;
};

}  // namespace coeff::sched
