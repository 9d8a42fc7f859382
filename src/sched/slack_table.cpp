#include "sched/slack_table.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "sched/periodic_schedule.hpp"

namespace coeff::sched {

SlackTable::SlackTable(const TaskSet& set) {
  set.validate();
  hyperperiod_ = set.hyperperiod();
  const ScheduleResult schedule = simulate_periodic(set, hyperperiod_ * 3);
  schedulable_ = !schedule.any_deadline_missed;
  sim::Time idle = sim::Time::zero();
  for (const TimelineSegment& seg : schedule.timeline) {
    if (seg.level != kIdleLevel) continue;
    idle_start_.push_back(seg.start);
    idle_end_.push_back(seg.end);
    idle_before_.push_back(idle);
    idle += seg.end - seg.start;
  }
  // The idle of the steady-state hyperperiod [H, 2H) ([0, H) may carry
  // offset transients). Both reads are at most 2H, where no wrap adds
  // this still-zero member.
  idle_per_hyperperiod_ =
      cumulative_idle(hyperperiod_ * 2) - cumulative_idle(hyperperiod_);
}

sim::Time SlackTable::cumulative_idle(sim::Time t) const {
  if (t < sim::Time::zero()) {
    throw std::invalid_argument("SlackTable: negative time");
  }
  // Beyond 2H: the instant folded into [H, 2H) plus one steady-state
  // hyperperiod's idle per whole wrap (t - folded is a multiple of H).
  std::int64_t wraps = 0;
  if (t > hyperperiod_ * 2) {
    const sim::Time folded = hyperperiod_ + (t - hyperperiod_) % hyperperiod_;
    wraps = (t - folded) / hyperperiod_;
    t = folded;
  }
  const sim::Time extension = idle_per_hyperperiod_ * wraps;
  const auto it = std::upper_bound(idle_start_.begin(), idle_start_.end(), t);
  if (it == idle_start_.begin()) return extension;
  const auto k = static_cast<std::size_t>(it - idle_start_.begin()) - 1;
  return idle_before_[k] + std::min(t, idle_end_[k]) - idle_start_[k] +
         extension;
}

sim::Time SlackTable::idle_between(sim::Time a, sim::Time b) const {
  if (b <= a) return sim::Time::zero();
  return cumulative_idle(b) - cumulative_idle(a);
}

sim::Time SlackTable::min_idle_in_window(sim::Time window) const {
  if (window <= sim::Time::zero()) return sim::Time::zero();
  const sim::Time h = hyperperiod_;
  // g(a) = idle in [a, a+window) is piecewise linear in a with slopes
  // in {-1, 0, 1}; its minima sit at H or where either end of the window
  // meets an idle boundary. g is H-periodic over the steady state, so
  // folding the candidates into [H, 2H) loses nothing.
  auto fold = [&](sim::Time a) {
    if (a < h) a += h * ((h - a) / h + 1);
    return h + (a - h) % h;
  };
  sim::Time best = idle_between(h, h + window);
  for (std::size_t k = 0; k < idle_start_.size(); ++k) {
    for (const sim::Time b : {idle_start_[k], idle_end_[k]}) {
      if (b < h || b >= h * 3) continue;
      for (const sim::Time a : {fold(b), fold(b - window)}) {
        best = std::min(best, idle_between(a, a + window));
      }
    }
  }
  return best;
}

std::shared_ptr<const SlackTable> SlackTable::shared(const TaskSet& set) {
  return std::make_shared<const SlackTable>(set);
}

}  // namespace coeff::sched
