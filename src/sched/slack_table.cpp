#include "sched/slack_table.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <mutex>
#include <stdexcept>

namespace coeff::sched {

SlackTable::SlackTable(const TaskSet& set) {
  set.validate();
  hyperperiod_ = set.hyperperiod();
  window_ = hyperperiod_ * 3;
  const ScheduleResult schedule = simulate_periodic(set, window_);
  schedulable_ = !schedule.any_deadline_missed;

  const std::size_t n = set.size();
  idle_curves_.resize(n);
  idle_per_hyperperiod_.assign(n, sim::Time::zero());

  for (std::size_t level = 0; level < n; ++level) {
    LevelCurve& curve = idle_curves_[level];
    sim::Time cum = sim::Time::zero();
    for (const auto& seg : schedule.timeline) {
      const bool idle = seg.level > static_cast<int>(level);
      curve.seg_start.push_back(seg.start);
      curve.seg_end.push_back(seg.end);
      curve.cum_at_start.push_back(cum);
      curve.is_idle.push_back(idle);
      if (idle) cum += seg.end - seg.start;
    }
    // Idle accumulated across exactly one steady-state hyperperiod.
    // (Use [H, 2H); the first hyperperiod may carry offset transients.)
    sim::Time idle_h = sim::Time::zero();
    for (std::size_t k = 0; k < curve.seg_start.size(); ++k) {
      if (!curve.is_idle[k]) continue;
      const sim::Time lo = std::max(curve.seg_start[k], hyperperiod_);
      const sim::Time hi = std::min(curve.seg_end[k], hyperperiod_ * 2);
      if (hi > lo) idle_h += hi - lo;
    }
    idle_per_hyperperiod_[level] = idle_h;
  }

  // Per-level deadlines and suffix minima of Idle_level(deadline).
  for (const auto& job : schedule.jobs) {
    idle_curves_[job.level].deadlines.push_back(job.abs_deadline);
  }
  for (std::size_t level = 0; level < n; ++level) {
    LevelCurve& curve = idle_curves_[level];
    std::sort(curve.deadlines.begin(), curve.deadlines.end());
    curve.suffix_min_idle_at_deadline.resize(curve.deadlines.size());
    sim::Time running_min = sim::Time::max();
    for (std::size_t k = curve.deadlines.size(); k-- > 0;) {
      const sim::Time v = cum_idle_folded(
          level, std::min(curve.deadlines[k], window_));
      running_min = std::min(running_min, v);
      curve.suffix_min_idle_at_deadline[k] = running_min;
    }
  }

  build_merged_curve();
}

void SlackTable::build_merged_curve() {
  if (idle_curves_.empty()) return;
  const LevelCurve& ref = idle_curves_.front();
  if (ref.seg_start.empty()) return;

  // Runtime queries fold into [0, 2H), so the grid only needs the
  // breakpoints there: every timeline segment boundary (shared by all
  // levels — the curves come from one schedule) plus every deadline.
  const sim::Time limit = hyperperiod_ * 2;
  std::vector<sim::Time> grid;
  grid.push_back(sim::Time::zero());
  for (const sim::Time s : ref.seg_start) {
    if (s > sim::Time::zero() && s < limit) grid.push_back(s);
  }
  for (const LevelCurve& curve : idle_curves_) {
    for (const sim::Time d : curve.deadlines) {
      if (d > sim::Time::zero() && d < limit) grid.push_back(d);
    }
  }
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());

  const std::size_t n = idle_curves_.size();
  std::vector<std::size_t> next_deadline(n, 0);
  std::size_t seg = 0;
  merged_times_.reserve(grid.size());
  merged_c0_.reserve(grid.size());
  merged_c1_.reserve(grid.size());
  for (const sim::Time t0 : grid) {
    while (seg + 1 < ref.seg_start.size() && ref.seg_start[seg + 1] <= t0) {
      ++seg;
    }
    sim::Time c0 = sim::Time::max();
    sim::Time c1 = sim::Time::max();
    for (std::size_t level = 0; level < n; ++level) {
      const LevelCurve& curve = idle_curves_[level];
      std::size_t& k = next_deadline[level];
      while (k < curve.deadlines.size() && curve.deadlines[k] <= t0) ++k;
      if (k == curve.deadlines.size()) continue;  // level unconstrained
      sim::Time cum = curve.cum_at_start[seg];
      const bool idle = curve.is_idle[seg];
      if (idle) cum += t0 - curve.seg_start[seg];
      const sim::Time s = curve.suffix_min_idle_at_deadline[k] - cum;
      if (idle) {
        c1 = std::min(c1, s);
      } else {
        c0 = std::min(c0, s);
      }
    }
    merged_times_.push_back(t0);
    merged_c0_.push_back(c0);
    merged_c1_.push_back(c1);
  }
}

sim::Time SlackTable::fold(sim::Time t) const {
  if (t < sim::Time::zero()) {
    throw std::invalid_argument("SlackTable: negative time");
  }
  if (t < hyperperiod_ * 2) return t;
  // Fold into [H, 2H): the canonical steady-state window.
  return hyperperiod_ + ((t - hyperperiod_) % hyperperiod_);
}

sim::Time SlackTable::cum_idle_folded(std::size_t level, sim::Time t) const {
  const LevelCurve& curve = idle_curves_.at(level);
  if (curve.seg_start.empty() || t <= sim::Time::zero()) {
    return sim::Time::zero();
  }
  if (t >= window_) {
    // Cumulative idle at the very end of the table.
    const std::size_t last = curve.seg_start.size() - 1;
    sim::Time cum = curve.cum_at_start[last];
    if (curve.is_idle[last]) cum += curve.seg_end[last] - curve.seg_start[last];
    return cum;
  }
  // Binary search the segment containing t.
  const auto it = std::upper_bound(curve.seg_start.begin(),
                                   curve.seg_start.end(), t);
  const std::size_t k = static_cast<std::size_t>(
      std::distance(curve.seg_start.begin(), it)) - 1;
  sim::Time cum = curve.cum_at_start[k];
  if (curve.is_idle[k]) cum += t - curve.seg_start[k];
  return cum;
}

sim::Time SlackTable::cumulative_idle(std::size_t level, sim::Time t) const {
  if (t <= hyperperiod_ * 2) return cum_idle_folded(level, t);
  // Beyond the table: the folded point plus one steady-state
  // hyperperiod's idle per whole wrap (t - fold(t) is a multiple of H).
  const sim::Time folded = fold(t);
  const std::int64_t wraps = (t - folded) / hyperperiod_;
  return cum_idle_folded(level, folded) +
         idle_per_hyperperiod_.at(level) * wraps;
}

sim::Time SlackTable::idle_between(std::size_t level, sim::Time a,
                                   sim::Time b) const {
  if (b <= a) return sim::Time::zero();
  return cumulative_idle(level, b) - cumulative_idle(level, a);
}

sim::Time SlackTable::level_slack(std::size_t level, sim::Time t) const {
  const LevelCurve& curve = idle_curves_.at(level);
  const sim::Time tf = fold(t);
  // First future deadline strictly after tf.
  const auto it = std::upper_bound(curve.deadlines.begin(),
                                   curve.deadlines.end(), tf);
  if (it == curve.deadlines.end()) {
    return sim::Time::max();  // no job of this level constrains us anymore
  }
  const std::size_t k = static_cast<std::size_t>(
      std::distance(curve.deadlines.begin(), it));
  const sim::Time min_idle_at_deadline = curve.suffix_min_idle_at_deadline[k];
  const sim::Time idle_now = cum_idle_folded(level, tf);
  const sim::Time slack = min_idle_at_deadline - idle_now;
  return std::max(slack, sim::Time::zero());
}

sim::Time SlackTable::slack_at(sim::Time t, std::size_t from_level) const {
  if (from_level == 0 && !merged_times_.empty()) {
    // Per-level clamping commutes with the min (min_i max(s_i, 0) ==
    // max(min_i s_i, 0)), so the merged curve can clamp once at the end.
    const sim::Time tf = fold(t);
    const auto it = std::upper_bound(merged_times_.begin(),
                                     merged_times_.end(), tf);
    const std::size_t j = static_cast<std::size_t>(
        std::distance(merged_times_.begin(), it)) - 1;
    sim::Time s = merged_c0_[j];
    if (merged_c1_[j] != sim::Time::max()) {
      s = std::min(s, merged_c1_[j] - (tf - merged_times_[j]));
    }
    if (s == sim::Time::max()) return s;
    return std::max(s, sim::Time::zero());
  }
  sim::Time s = sim::Time::max();
  for (std::size_t level = from_level; level < idle_curves_.size(); ++level) {
    s = std::min(s, level_slack(level, t));
  }
  return s;
}

sim::Time SlackTable::min_slack() const {
  if (merged_times_.empty()) return sim::Time::max();
  const sim::Time lo = hyperperiod_;
  const sim::Time hi = hyperperiod_ * 2;
  sim::Time best = sim::Time::max();
  for (std::size_t j = 0; j < merged_times_.size(); ++j) {
    const sim::Time t0 = merged_times_[j];
    const sim::Time t1 =
        j + 1 < merged_times_.size() ? merged_times_[j + 1] : hi;
    if (t1 <= lo || t0 >= hi) continue;
    // Within the interval the curve is min(c0, c1 - (t - t0)): the
    // constant branch and the slope -1 branch, minimal at the interval
    // end. Clamping at zero commutes with the min (see slack_at).
    sim::Time v = merged_c0_[j];
    if (merged_c1_[j] != sim::Time::max()) {
      v = std::min(v, merged_c1_[j] - (std::min(t1, hi) - t0));
    }
    if (v == sim::Time::max()) continue;
    best = std::min(best, std::max(v, sim::Time::zero()));
  }
  return best;
}

sim::Time SlackTable::min_idle_in_window(sim::Time window) const {
  if (window <= sim::Time::zero()) return sim::Time::zero();
  // Full-schedule idle = idle of the lowest-priority level's curve
  // (segments where nothing at all runs).
  if (idle_curves_.empty()) return window;  // no tasks: all time is idle
  const std::size_t level = idle_curves_.size() - 1;
  const LevelCurve& curve = idle_curves_[level];
  if (curve.seg_start.empty()) return window;
  const sim::Time lo = hyperperiod_;
  const sim::Time hi = hyperperiod_ * 2;
  // g(a) = idle in [a, a+window) is piecewise linear in a with slopes
  // in {-1, 0, 1}; its minima sit where either end of the window meets a
  // segment boundary. g is H-periodic over the steady state, so folding
  // the trailing-edge candidates into [H, 2H) loses nothing.
  std::vector<sim::Time> candidates;
  auto push = [&](sim::Time a) {
    if (a < lo) a += hyperperiod_ * ((lo - a) / hyperperiod_ + 1);
    a = lo + ((a - lo) % hyperperiod_);
    candidates.push_back(a);
  };
  for (std::size_t k = 0; k < curve.seg_start.size(); ++k) {
    for (const sim::Time b : {curve.seg_start[k], curve.seg_end[k]}) {
      if (b < lo || b >= window_) continue;
      push(b);
      push(b - window);
    }
  }
  push(lo);
  sim::Time best = sim::Time::max();
  for (const sim::Time a : candidates) {
    if (a < lo || a >= hi) continue;
    best = std::min(best, idle_between(level, a, a + window));
  }
  return best == sim::Time::max() ? sim::Time::zero() : best;
}

std::shared_ptr<const SlackTable> SlackTable::shared(const TaskSet& set) {
  // Exact-parameter key (no hashing, so no collision risk): one packed
  // row per task in priority order.
  using Fingerprint = std::vector<std::array<std::int64_t, 5>>;
  static std::mutex mutex;
  static std::map<Fingerprint, std::shared_ptr<const SlackTable>> cache;

  Fingerprint fp;
  fp.reserve(set.size());
  for (const PeriodicTask& t : set.tasks()) {
    fp.push_back({t.id, t.wcet.ns(), t.period.ns(), t.offset.ns(),
                  t.deadline.ns()});
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = cache.find(fp);
    if (it != cache.end()) return it->second;
  }
  // Build outside the lock so concurrent sweep workers constructing
  // different suites don't serialize; a duplicate concurrent build of
  // the same suite is benign (the first insert wins).
  auto table = std::make_shared<const SlackTable>(set);
  const std::lock_guard<std::mutex> lock(mutex);
  return cache.emplace(std::move(fp), std::move(table)).first->second;
}

}  // namespace coeff::sched
