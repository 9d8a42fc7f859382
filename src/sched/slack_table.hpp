// Static slack table (§III-B, §III-F).
//
// Built offline from the exact periodic schedule: for every priority
// level i it holds the cumulative level-i idle curve Idle_i(t) and, for
// every job, the idle accumulated by that job's deadline. The runtime
// query
//     S_i(t) = min over future jobs j at level i of Idle_i((t, d_j])
// is the largest amount of top-priority aperiodic processing that can
// start at t without pushing any level-i job past its deadline; the
// system-wide stealable slack is min_i S_i(t) (the paper's
// S*_k = min_{k<=i<=n} S_i).
//
// The table is built over three hyperperiods: [0, H) captures the
// offset-induced transient, [H, 3H) the repeating pattern; queries at
// arbitrary runtime instants fold into [H, 2H).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sched/periodic_schedule.hpp"
#include "sched/task.hpp"
#include "sim/time.hpp"

namespace coeff::sched {

class SlackTable {
 public:
  /// Builds the schedule and the per-level curves. The set must be
  /// validated; `schedulable()` reports whether the periodic schedule
  /// itself met every deadline (slack queries are meaningless if not).
  explicit SlackTable(const TaskSet& set);

  /// Memoized construction: task sets with identical parameters share
  /// one immutable table, so repeated queries on one static suite in a
  /// process (perfbench's traced analyze-cold pass) pay the
  /// 3x-hyperperiod schedule simulation once. The cache never evicts.
  /// Thread-safe; the returned table is immutable and safe to share
  /// across threads.
  [[nodiscard]] static std::shared_ptr<const SlackTable> shared(
      const TaskSet& set);

  [[nodiscard]] bool schedulable() const { return schedulable_; }
  [[nodiscard]] sim::Time hyperperiod() const { return hyperperiod_; }
  [[nodiscard]] std::size_t levels() const { return idle_curves_.size(); }

  /// S_i(t): slack available at level `level` at absolute time `t`
  /// against that level's own future deadlines. Time::max() when no
  /// future job of that level constrains it.
  [[nodiscard]] sim::Time level_slack(std::size_t level, sim::Time t) const;

  /// min_{i >= from_level} S_i(t): stealable processing at priority
  /// `from_level` (0 = above everything, the slot-stealer's setting).
  /// The from_level == 0 query is served from a precomputed min-folded
  /// curve in O(log breakpoints); other levels scan the suffix.
  [[nodiscard]] sim::Time slack_at(sim::Time t,
                                   std::size_t from_level = 0) const;

  /// Cumulative level-i idle of the unperturbed schedule in [0, t),
  /// extended periodically beyond the table window.
  [[nodiscard]] sim::Time cumulative_idle(std::size_t level,
                                          sim::Time t) const;

  /// Level-i idle in [a, b), periodic extension included.
  [[nodiscard]] sim::Time idle_between(std::size_t level, sim::Time a,
                                       sim::Time b) const;

  // --- Analytic queries over the steady-state window -------------------

  /// Floor of the merged stealable-slack curve min_i S_i(t) over the
  /// steady-state window [H, 2H): the slack guaranteed to be grantable
  /// at *any* runtime instant. Time::max() when no level is constrained
  /// by a future deadline.
  [[nodiscard]] sim::Time min_slack() const;

  /// Guaranteed full-schedule idle (no level runs) inside ANY window of
  /// length `window`: min over start instants a of idle in [a, a+window)
  /// under periodic extension. The lower bound on the service a
  /// backlogged top-priority stealer receives per `window` of waiting.
  /// sched::min_idle_in_window computes the same value without the
  /// table; this member is its reference in the tests.
  [[nodiscard]] sim::Time min_idle_in_window(sim::Time window) const;

 private:
  struct LevelCurve {
    // Breakpoints of the cumulative idle function over [0, 3H):
    // at times_[k], cumulative idle is cums_[k]; between breakpoints the
    // function is linear with slope 0 or 1 (idle segments).
    std::vector<sim::Time> seg_start;
    std::vector<sim::Time> seg_end;
    std::vector<sim::Time> cum_at_start;  ///< cumulative idle at seg_start
    std::vector<bool> is_idle;
    // Job deadlines at this level (sorted) and the suffix minimum of
    // cumulative idle evaluated at each deadline.
    std::vector<sim::Time> deadlines;
    std::vector<sim::Time> suffix_min_idle_at_deadline;
  };

  /// Fold an arbitrary runtime instant into the table window.
  [[nodiscard]] sim::Time fold(sim::Time t) const;
  /// Cumulative idle at a folded instant (t in [0, 3H)).
  [[nodiscard]] sim::Time cum_idle_folded(std::size_t level,
                                          sim::Time t) const;
  /// Precompute the min over all levels of S_i(t) as a piecewise-linear
  /// curve over [0, 2H) so the common from_level == 0 query needs one
  /// binary search instead of a scan of every level.
  void build_merged_curve();

  std::vector<LevelCurve> idle_curves_;
  // Merged curve: between merged_times_[j] and merged_times_[j+1] every
  // level's S_i(t) is linear with slope 0 or -1 (no deadline passes, no
  // segment boundary crosses), so min_i S_i(t) is
  //   min(merged_c0_[j], merged_c1_[j] - (t - merged_times_[j]))
  // where c0 folds the constant levels and c1 the decreasing ones
  // (Time::max() when a class is empty).
  std::vector<sim::Time> merged_times_;
  std::vector<sim::Time> merged_c0_;
  std::vector<sim::Time> merged_c1_;
  std::vector<sim::Time> idle_per_hyperperiod_;
  sim::Time hyperperiod_;
  sim::Time window_;  ///< 3H
  bool schedulable_ = false;
};

}  // namespace coeff::sched
