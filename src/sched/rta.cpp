#include "sched/rta.hpp"

#include <cmath>

namespace coeff::sched {

std::optional<sim::Time> response_time_of_level(const TaskSet& set,
                                                std::size_t level) {
  const auto& tasks = set.tasks();
  const PeriodicTask& ti = tasks.at(level);
  sim::Time r = ti.wcet;
  // Iterate to the least fixed point; abort once past the deadline since
  // interference is monotone in r.
  for (int iter = 0; iter < 10'000; ++iter) {
    sim::Time demand = ti.wcet;
    for (std::size_t j = 0; j < level; ++j) {
      const auto& tj = tasks[j];
      const std::int64_t releases =
          (r.ns() + tj.period.ns() - 1) / tj.period.ns();
      demand += tj.wcet * releases;
    }
    if (demand == r) return r;
    r = demand;
    if (r > ti.deadline) return std::nullopt;
  }
  return std::nullopt;  // did not converge (pathological utilization ~ 1)
}

RtaResult response_time_analysis(const TaskSet& set) {
  RtaResult result;
  result.schedulable = true;
  result.response_times.reserve(set.size());
  for (std::size_t level = 0; level < set.size(); ++level) {
    auto r = response_time_of_level(set, level);
    if (r.has_value()) {
      result.response_times.push_back(*r);
    } else {
      result.schedulable = false;
      result.response_times.push_back(sim::Time::max());
    }
  }
  return result;
}

}  // namespace coeff::sched
