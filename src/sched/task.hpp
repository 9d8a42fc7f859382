// Real-time task model (§III-A).
//
// Static-segment transmissions are hard-deadline periodic tasks;
// retransmission copies are hard-deadline aperiodic tasks; dynamic
// messages are soft-deadline aperiodic tasks. Priorities are
// deadline-monotonic ("tasks with smaller d_i are allocated higher
// priority"), with the task id as a deterministic tie-break.
#pragma once

#include <cstdint>
#include <vector>

#include "flexray/config.hpp"
#include "net/message.hpp"
#include "sim/time.hpp"

namespace coeff::sched {

struct PeriodicTask {
  int id = 0;
  sim::Time wcet;      ///< worst-case computation/transmission time (C_i)
  sim::Time period;    ///< T_i
  sim::Time offset;    ///< phi_i, 0 <= phi_i <= T_i
  sim::Time deadline;  ///< d_i, relative, d_i <= T_i
};

/// An aperiodic arrival (hard if `hard`, else response-time-minimizing).
struct AperiodicJob {
  std::uint64_t id = 0;
  sim::Time arrival;   ///< alpha_k
  sim::Time work;      ///< p_k
  sim::Time deadline;  ///< D_k, relative; ignored when !hard
  bool hard = false;
};

/// A periodic task set held in deadline-monotonic priority order
/// (index 0 = highest priority).
class TaskSet {
 public:
  TaskSet() = default;
  explicit TaskSet(std::vector<PeriodicTask> tasks);

  void add(PeriodicTask t);

  [[nodiscard]] const std::vector<PeriodicTask>& tasks() const {
    return tasks_;
  }
  [[nodiscard]] std::size_t size() const { return tasks_.size(); }
  [[nodiscard]] bool empty() const { return tasks_.empty(); }
  /// Task at priority level `level` (0 = highest).
  [[nodiscard]] const PeriodicTask& at_level(std::size_t level) const {
    return tasks_.at(level);
  }

  [[nodiscard]] double utilization() const;
  [[nodiscard]] sim::Time hyperperiod() const;

  /// Throws std::invalid_argument on non-positive period/wcet, deadline
  /// outside (0, period], offset outside [0, period], or duplicate ids.
  void validate() const;

 private:
  void sort_deadline_monotonic();

  std::vector<PeriodicTask> tasks_;
};

/// The static set as a wire-speed fixed-priority processor: one task per
/// message, whose C_i is the time `cluster` takes to clock the message's
/// bits onto the wire (ClusterConfig::transmission_time), with the
/// message's period, offset and deadline. Not validated.
[[nodiscard]] TaskSet wire_task_set(const net::MessageSet& statics,
                                    const flexray::ClusterConfig& cluster);

}  // namespace coeff::sched
