#include "sched/periodic_schedule.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>

namespace coeff::sched {

namespace {

/// The maximal idle intervals of the set's schedule over [0, horizon),
/// with the idle accumulated before each one.
struct IdleIntervals {
  std::vector<sim::Time> start;
  std::vector<sim::Time> end;
  std::vector<sim::Time> idle_before;

  /// Idle in [0, t).
  [[nodiscard]] sim::Time cumulative(sim::Time t) const {
    const auto it = std::upper_bound(start.begin(), start.end(), t);
    if (it == start.begin()) return sim::Time::zero();
    const auto k = static_cast<std::size_t>(it - start.begin()) - 1;
    return idle_before[k] + std::min(t, end[k]) - start[k];
  }
};

/// A work-conserving processor is idle exactly when no released work is
/// left, and the work left depends only on release times and WCETs, not
/// on which job runs. So one sweep over the merged release stream (a
/// min-heap of each task's next release) yields the idle intervals of
/// simulate_periodic's timeline without simulating priorities.
IdleIntervals idle_intervals(const TaskSet& set, sim::Time horizon) {
  const auto& tasks = set.tasks();
  using Release = std::pair<sim::Time, std::size_t>;  ///< (at, task index)
  std::priority_queue<Release, std::vector<Release>, std::greater<>> next;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    next.emplace(tasks[i].offset, i);
  }

  IdleIntervals idle;
  sim::Time now = sim::Time::zero();
  sim::Time backlog = sim::Time::zero();
  sim::Time total = sim::Time::zero();
  auto run_until = [&](sim::Time t) {
    if (backlog >= t - now) {
      backlog -= t - now;
    } else {
      const sim::Time from = now + backlog;
      idle.start.push_back(from);
      idle.end.push_back(t);
      idle.idle_before.push_back(total);
      total += t - from;
      backlog = sim::Time::zero();
    }
    now = t;
  };
  while (!next.empty() && next.top().first < horizon) {
    const auto [at, i] = next.top();
    next.pop();
    run_until(at);
    backlog += tasks[i].wcet;
    next.emplace(at + tasks[i].period, i);
  }
  run_until(horizon);
  return idle;
}

}  // namespace

sim::Time ScheduleResult::level_idle(std::size_t level, sim::Time from,
                                     sim::Time to) const {
  sim::Time idle = sim::Time::zero();
  for (const auto& seg : timeline) {
    if (seg.end <= from) continue;
    if (seg.start >= to) break;
    // Level-i idle: the running level is strictly lower priority (larger
    // index) than i, i.e. neither a task of level <= i nor an inserted
    // block occupies the processor.
    if (seg.level != kInsertedLevel &&
        seg.level > static_cast<int>(level)) {
      const sim::Time lo = std::max(seg.start, from);
      const sim::Time hi = std::min(seg.end, to);
      idle += hi - lo;
    }
  }
  return idle;
}

sim::Time ScheduleResult::finish_of(std::size_t level,
                                    std::int64_t index) const {
  for (const auto& job : jobs) {
    if (job.level == level && job.index == index) return job.finish;
  }
  return sim::Time::max();
}

ScheduleResult simulate_periodic(const TaskSet& set, sim::Time horizon,
                                 const std::vector<InsertedBlock>& inserted) {
  set.validate();
  for (std::size_t i = 1; i < inserted.size(); ++i) {
    if (inserted[i].at < inserted[i - 1].at) {
      throw std::invalid_argument("simulate_periodic: inserted blocks must be "
                                  "sorted by insertion time");
    }
  }

  const auto& tasks = set.tasks();
  const std::size_t n = tasks.size();

  struct PendingJob {
    std::size_t job_slot;  ///< index into result.jobs
    sim::Time remaining;
  };

  ScheduleResult result;
  std::vector<std::deque<PendingJob>> pending(n);  // per level, FIFO
  std::deque<PendingJob> inserted_pending;
  std::vector<std::int64_t> next_release_index(n, 0);
  std::size_t next_inserted = 0;

  auto task_next_release = [&](std::size_t level) {
    return tasks[level].offset + tasks[level].period * next_release_index[level];
  };

  auto release_due = [&](sim::Time now) {
    // Release every task job and inserted block with release time <= now.
    for (std::size_t level = 0; level < n; ++level) {
      while (task_next_release(level) <= now &&
             task_next_release(level) < horizon) {
        const sim::Time release = task_next_release(level);
        JobRecord job;
        job.task_id = tasks[level].id;
        job.level = level;
        job.index = next_release_index[level];
        job.release = release;
        job.abs_deadline = release + tasks[level].deadline;
        job.finish = sim::Time::max();
        result.jobs.push_back(job);
        pending[level].push_back({result.jobs.size() - 1, tasks[level].wcet});
        ++next_release_index[level];
      }
    }
    while (next_inserted < inserted.size() &&
           inserted[next_inserted].at <= now) {
      // Inserted blocks are bookkept as jobs of a pseudo task (id -1).
      JobRecord job;
      job.task_id = -1;
      job.level = static_cast<std::size_t>(-1);
      job.index = static_cast<std::int64_t>(next_inserted);
      job.release = inserted[next_inserted].at;
      job.abs_deadline = sim::Time::max();
      job.finish = sim::Time::max();
      result.jobs.push_back(job);
      inserted_pending.push_back(
          {result.jobs.size() - 1, inserted[next_inserted].length});
      ++next_inserted;
    }
  };

  auto next_release_time = [&]() {
    sim::Time next = sim::Time::max();
    for (std::size_t level = 0; level < n; ++level) {
      const sim::Time r = task_next_release(level);
      if (r < horizon) next = std::min(next, r);
    }
    if (next_inserted < inserted.size()) {
      next = std::min(next, inserted[next_inserted].at);
    }
    return next;
  };

  auto highest_pending = [&]() -> int {
    if (!inserted_pending.empty()) return kInsertedLevel;
    for (std::size_t level = 0; level < n; ++level) {
      if (!pending[level].empty()) return static_cast<int>(level);
    }
    return kIdleLevel;
  };

  auto emit_segment = [&](sim::Time start, sim::Time end, int level) {
    if (end <= start) return;
    if (!result.timeline.empty() && result.timeline.back().level == level &&
        result.timeline.back().end == start) {
      result.timeline.back().end = end;  // coalesce
    } else {
      result.timeline.push_back({start, end, level});
    }
  };

  sim::Time now = sim::Time::zero();
  release_due(now);
  while (now < horizon) {
    const int level = highest_pending();
    const sim::Time next_rel = next_release_time();
    if (level == kIdleLevel) {
      const sim::Time until = std::min(next_rel, horizon);
      emit_segment(now, until, kIdleLevel);
      now = until;
      release_due(now);
      continue;
    }
    PendingJob& job = (level == kInsertedLevel)
                          ? inserted_pending.front()
                          : pending[static_cast<std::size_t>(level)].front();
    const sim::Time completion = now + job.remaining;
    const sim::Time until = std::min({completion, next_rel, horizon});
    emit_segment(now, until, level);
    job.remaining -= until - now;
    now = until;
    if (job.remaining == sim::Time::zero()) {
      result.jobs[job.job_slot].finish = now;
      if (level == kInsertedLevel) {
        inserted_pending.pop_front();
      } else {
        pending[static_cast<std::size_t>(level)].pop_front();
      }
    }
    release_due(now);
  }

  for (const auto& job : result.jobs) {
    if (job.task_id >= 0 && job.missed()) {
      result.any_deadline_missed = true;
      break;
    }
  }
  return result;
}

sim::Time min_idle_in_window(const TaskSet& set, sim::Time window) {
  set.validate();
  const sim::Time h = set.hyperperiod();
  if (window <= sim::Time::zero()) return sim::Time::zero();
  if (set.empty()) return window;  // no tasks: all time is idle

  // SlackTable's horizon, periodic extension and candidate rule, on the
  // full-schedule idle alone.
  const sim::Time horizon = h * 3;
  const IdleIntervals idle = idle_intervals(set, horizon);
  const sim::Time idle_per_h = idle.cumulative(h * 2) - idle.cumulative(h);
  auto cumulative = [&](sim::Time t) {
    if (t <= h * 2) return idle.cumulative(t);
    const sim::Time folded = h + (t - h) % h;
    return idle.cumulative(folded) + idle_per_h * ((t - folded) / h);
  };
  // Idle in [a, a+window) with a folded into [H, 2H).
  auto idle_from = [&](sim::Time a) {
    if (a < h) a += h * ((h - a) / h + 1);
    a = h + (a - h) % h;
    return cumulative(a + window) - cumulative(a);
  };

  // g(a) = idle in [a, a+window) is continuous, H-periodic from H on, and
  // piecewise linear with breakpoints only where a or a+window crosses an
  // idle/busy boundary, so its minimum sits at a boundary b or at
  // b - window (or at H). The busy/busy boundaries the table also tries
  // are never below that minimum (DESIGN.md §14).
  sim::Time best = idle_from(h);
  for (std::size_t k = 0; k < idle.start.size(); ++k) {
    for (const sim::Time b : {idle.start[k], idle.end[k]}) {
      if (b < h || b >= horizon) continue;
      best = std::min({best, idle_from(b), idle_from(b - window)});
    }
  }
  return best;
}

}  // namespace coeff::sched
