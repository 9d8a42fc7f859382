#include "sched/task.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>

namespace coeff::sched {

TaskSet::TaskSet(std::vector<PeriodicTask> tasks) : tasks_(std::move(tasks)) {
  sort_deadline_monotonic();
}

TaskSet wire_task_set(const net::MessageSet& statics,
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
  return TaskSet{std::move(tasks)};
}

void TaskSet::add(PeriodicTask t) {
  tasks_.push_back(t);
  sort_deadline_monotonic();
}

void TaskSet::sort_deadline_monotonic() {
  std::stable_sort(tasks_.begin(), tasks_.end(),
                   [](const PeriodicTask& a, const PeriodicTask& b) {
                     if (a.deadline != b.deadline) return a.deadline < b.deadline;
                     return a.id < b.id;
                   });
}

double TaskSet::utilization() const {
  double u = 0.0;
  for (const auto& t : tasks_) {
    u += t.wcet.as_seconds() / t.period.as_seconds();
  }
  return u;
}

sim::Time TaskSet::hyperperiod() const {
  std::int64_t lcm_ns = 1;
  for (const auto& t : tasks_) {
    lcm_ns = std::lcm(lcm_ns, t.period.ns());
    if (lcm_ns > sim::seconds(3600).ns()) {
      throw std::domain_error("TaskSet::hyperperiod exceeds one hour");
    }
  }
  return sim::nanos(lcm_ns);
}

void TaskSet::validate() const {
  std::set<int> ids;
  for (const auto& t : tasks_) {
    const std::string tag = "task " + std::to_string(t.id) + ": ";
    if (!ids.insert(t.id).second) {
      throw std::invalid_argument("TaskSet: duplicate id " +
                                  std::to_string(t.id));
    }
    if (t.period <= sim::Time::zero()) {
      throw std::invalid_argument(tag + "period must be positive");
    }
    if (t.wcet <= sim::Time::zero()) {
      throw std::invalid_argument(tag + "wcet must be positive");
    }
    if (t.wcet > t.period) {
      throw std::invalid_argument(tag + "wcet exceeds period");
    }
    if (t.deadline <= sim::Time::zero() || t.deadline > t.period) {
      throw std::invalid_argument(tag + "deadline must be in (0, period]");
    }
    if (t.offset < sim::Time::zero() || t.offset > t.period) {
      throw std::invalid_argument(tag + "offset must be in [0, period]");
    }
  }
}

}  // namespace coeff::sched
