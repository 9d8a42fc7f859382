#include "sched/periodic_schedule.hpp"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <utility>

namespace coeff::sched {

namespace {

/// The maximal idle intervals of the set's schedule over [0, 2H), with
/// the idle accumulated before each one. An interval may be cut at H.
struct IdleIntervals {
  std::vector<sim::Time> start;
  std::vector<sim::Time> end;
  std::vector<sim::Time> idle_before;
  sim::Time total = sim::Time::zero();

  void push(sim::Time from, sim::Time to) {
    start.push_back(from);
    end.push_back(to);
    idle_before.push_back(total);
    total += to - from;
  }
};

/// Idle in [0, t), read for one stream of queries. The cursor walks
/// forward from its last answer and binary-searches only when a query
/// steps back, so a stream that mostly ascends costs O(intervals) in
/// all. It lands on the same interval as a fresh search, so it returns
/// the same value.
class IdleCursor {
 public:
  explicit IdleCursor(const IdleIntervals& idle) : idle_(&idle) {}

  sim::Time operator()(sim::Time t) {
    const std::vector<sim::Time>& start = idle_->start;
    if (next_ > 0 && t < start[next_ - 1]) {
      next_ = static_cast<std::size_t>(
          std::upper_bound(start.begin(),
                           start.begin() + static_cast<std::ptrdiff_t>(next_),
                           t) -
          start.begin());
    } else {
      while (next_ < start.size() && start[next_] <= t) ++next_;
    }
    if (next_ == 0) return sim::Time::zero();
    const std::size_t k = next_ - 1;
    return idle_->idle_before[k] + std::min(t, idle_->end[k]) - start[k];
  }

 private:
  const IdleIntervals* idle_;
  std::size_t next_ = 0;  ///< intervals starting at or before the last query
};

using Head = std::pair<sim::Time, std::size_t>;  ///< (next release, lane)

/// Replaces the least head of the min-heap `heap` with `head` and sifts
/// it down: one pass from the root, where a pop and a push take two.
void replace_top(std::vector<Head>& heap, Head head) {
  const std::size_t n = heap.size();
  std::size_t i = 0;
  for (std::size_t child = 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n && heap[child + 1] < heap[child]) ++child;
    if (!(heap[child] < head)) break;
    heap[i] = heap[child];
    i = child;
  }
  heap[i] = head;
}

/// A work-conserving processor is idle exactly when no released work is
/// left, and the work left depends only on release times and WCETs, not
/// on which job runs. So one sweep over the merged release stream yields
/// the idle intervals of simulate_periodic's timeline without simulating
/// priorities. A valid task's offset lies in [0, period], so the tasks
/// that share a period release in offset order once per period: each
/// distinct period is one sorted lane, and the heap merges lane heads.
/// Releases at one instant only add to the backlog, so the order among
/// them does not matter.
///
/// The sweep covers [0, H), then runs on only until the backlog first
/// drains after the releases at H, at some tau. From tau on the schedule
/// repeats the one H earlier (DESIGN.md §14), so [tau, 2H) is a copy of
/// [tau - H, H); if the backlog never drains, [H, 2H) is busy.
IdleIntervals idle_intervals(const TaskSet& set, sim::Time h) {
  std::vector<PeriodicTask> tasks = set.tasks();
  std::sort(tasks.begin(), tasks.end(),
            [](const PeriodicTask& a, const PeriodicTask& b) {
              return std::pair(a.period, a.offset) <
                     std::pair(b.period, b.offset);
            });
  struct Lane {
    std::size_t first;  ///< the lane's tasks are tasks[first, last)
    std::size_t last;
    std::size_t next;   ///< the task that releases next
    sim::Time base;     ///< start of the period `next` releases in
  };
  std::vector<Lane> lanes;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (lanes.empty() || tasks[i].period != tasks[lanes.back().first].period) {
      lanes.push_back({i, i, i, sim::Time::zero()});
    }
    lanes.back().last = i + 1;
  }
  // Ascending order is a valid min-heap.
  std::vector<Head> heads;
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    heads.emplace_back(tasks[lanes[l].first].offset, l);
  }
  std::sort(heads.begin(), heads.end());

  IdleIntervals idle;
  sim::Time now = sim::Time::zero();
  sim::Time backlog = sim::Time::zero();
  auto run_until = [&](sim::Time t) {
    if (backlog >= t - now) {
      backlog -= t - now;
    } else {
      idle.push(now + backlog, t);
      backlog = sim::Time::zero();
    }
    now = t;
  };
  // Adds the least head's job to the backlog and moves its lane on.
  auto release = [&] {
    const std::size_t l = heads.front().second;
    Lane& lane = lanes[l];
    backlog += tasks[lane.next].wcet;
    if (++lane.next == lane.last) {
      lane.next = lane.first;
      lane.base += tasks[lane.first].period;
    }
    replace_top(heads, {lane.base + tasks[lane.next].offset, l});
  };
  while (heads.front().first < h) {
    run_until(heads.front().first);
    release();
  }
  run_until(h);

  // Release on from H until the backlog drains past H, or up to 2H.
  const sim::Time twice = h * 2;
  sim::Time tau = twice;
  for (;;) {
    const sim::Time at = std::min(heads.front().first, twice);
    if (at > h && backlog <= at - now) {
      tau = now + backlog;
      break;
    }
    if (at == twice) break;
    backlog -= at - now;
    now = at;
    release();
  }
  const std::size_t first_hyperperiod = idle.start.size();
  for (std::size_t k = 0; k < first_hyperperiod; ++k) {
    if (idle.end[k] <= tau - h) continue;
    idle.push(std::max(idle.start[k], tau - h) + h, idle.end[k] + h);
  }
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
    // index) than i, i.e. no task of level <= i occupies the processor.
    if (seg.level > static_cast<int>(level)) {
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

ScheduleResult simulate_periodic(const TaskSet& set, sim::Time horizon) {
  set.validate();

  const auto& tasks = set.tasks();
  const std::size_t n = tasks.size();

  struct PendingJob {
    std::size_t job_slot;  ///< index into result.jobs
    sim::Time remaining;
  };

  ScheduleResult result;
  std::vector<std::deque<PendingJob>> pending(n);  // per level, FIFO
  std::vector<std::int64_t> next_release_index(n, 0);

  auto task_next_release = [&](std::size_t level) {
    return tasks[level].offset + tasks[level].period * next_release_index[level];
  };

  auto release_due = [&](sim::Time now) {
    // Release every task job with release time <= now.
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
  };

  auto next_release_time = [&]() {
    sim::Time next = sim::Time::max();
    for (std::size_t level = 0; level < n; ++level) {
      const sim::Time r = task_next_release(level);
      if (r < horizon) next = std::min(next, r);
    }
    return next;
  };

  auto highest_pending = [&]() -> int {
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
    PendingJob& job = pending[static_cast<std::size_t>(level)].front();
    const sim::Time completion = now + job.remaining;
    const sim::Time until = std::min({completion, next_rel, horizon});
    emit_segment(now, until, level);
    job.remaining -= until - now;
    now = until;
    if (job.remaining == sim::Time::zero()) {
      result.jobs[job.job_slot].finish = now;
      pending[static_cast<std::size_t>(level)].pop_front();
    }
    release_due(now);
  }

  result.any_deadline_missed =
      std::any_of(result.jobs.begin(), result.jobs.end(),
                  [](const JobRecord& job) { return job.missed(); });
  return result;
}

sim::Time min_idle_in_window(const TaskSet& set, sim::Time window) {
  set.validate();
  const sim::Time h = set.hyperperiod();
  if (window <= sim::Time::zero()) return sim::Time::zero();
  if (set.empty()) return window;  // no tasks: all time is idle

  // SlackTable's periodic extension: exact up to 2H, then the idle of
  // [H, 2H) per wrap.
  const IdleIntervals idle = idle_intervals(set, h);
  const sim::Time idle_per_h = idle.total - IdleCursor(idle)(h);
  // Idle in [0, t), read through `cursor`.
  auto cumulative = [&](IdleCursor& cursor, sim::Time t) {
    if (t <= h * 2) return cursor(t);
    const sim::Time folded = h + (t - h) % h;
    return cursor(folded) + idle_per_h * ((t - folded) / h);
  };

  // g(a) = idle in [a, a+window) is continuous and H-periodic from H on,
  // and some run of its minima holds an idle end, or g is constant
  // (DESIGN.md §14). So the candidates are H and the idle ends in
  // (H, 2H). They ascend, and so do their a + window but for at most
  // one fold back over 2H: each stream has its own cursor.
  IdleCursor at_a(idle);
  IdleCursor past_a(idle);
  auto idle_from = [&](sim::Time a) {
    return cumulative(past_a, a + window) - at_a(a);
  };
  sim::Time best = idle_from(h);
  for (const sim::Time e : idle.end) {
    if (e > h && e < h * 2) best = std::min(best, idle_from(e));
  }
  return best;
}

}  // namespace coeff::sched
