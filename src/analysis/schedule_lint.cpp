#include "analysis/schedule_lint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "sched/periodic_schedule.hpp"
#include "sched/rta.hpp"
#include "sched/task.hpp"

namespace coeff::analysis {

namespace {

Location msg_loc(int id) {
  Location loc;
  loc.message_id = id;
  return loc;
}

Location slot_loc(std::int64_t slot, std::int64_t cycle = -1) {
  Location loc;
  loc.slot = slot;
  loc.cycle = cycle;
  return loc;
}

// --- Structural rules ----------------------------------------------------

void check_config(const flexray::ClusterConfig& cfg, Report& report) {
  try {
    cfg.validate();
  } catch (const std::invalid_argument& e) {
    report.add("schedule.config-valid", e.what());
  }
}

void check_macrotick_roundtrip(const flexray::ClusterConfig& cfg,
                               Report& report) {
  if (cfg.gd_macrotick <= sim::Time::zero()) return;  // config-valid fired
  // The message CSV writes periods, offsets and deadlines in whole
  // microseconds; on a fractional-us macrotick some grid points have no
  // such spelling, so a message cannot be pinned to them.
  if (!units::is_whole_microseconds(cfg.gd_macrotick)) {
    report.add("schedule.macrotick-roundtrip",
               strformat("gdMacrotick %s is not a whole number of "
                      "microseconds; the message CSV's period_us, "
                      "offset_us and deadline_us fields cannot land on "
                      "every point of this macrotick grid",
                      sim::to_string(cfg.gd_macrotick).c_str()));
  }
  // Every configured macrotick length must survive the units-layer
  // round trip Macroticks -> sim::Time -> Macroticks on this grid.
  struct Field {
    const char* name;
    units::Macroticks mt;
  };
  const Field fields[] = {
      {"gMacroPerCycle", cfg.g_macro_per_cycle},
      {"gdStaticSlot", cfg.gd_static_slot},
      {"gdMinislot", cfg.gd_minislot},
      {"gdActionPointOffset", cfg.gd_minislot_action_point_offset},
      {"gdSymbolWindow", cfg.gd_symbol_window},
  };
  for (const auto& f : fields) {
    try {
      const sim::Time t = units::to_time(f.mt, cfg.gd_macrotick);
      if (units::to_macroticks(t, cfg.gd_macrotick) != f.mt) {
        report.add("schedule.macrotick-roundtrip",
                   strformat("%s: %lld MT does not round-trip through "
                          "sim::Time on a %s macrotick grid",
                          f.name, static_cast<long long>(f.mt.count()),
                          sim::to_string(cfg.gd_macrotick).c_str()));
      }
    } catch (const std::exception& e) {
      report.add("schedule.macrotick-roundtrip",
                 strformat("%s: units round trip failed: %s", f.name,
                        e.what()));
    }
  }
}

void check_message_set(const flexray::ClusterConfig& cfg,
                       const net::MessageSet& set, const char* which,
                       Report& report) {
  try {
    set.validate();
  } catch (const std::invalid_argument& e) {
    report.add("schedule.message-set-valid",
               strformat("%s set: %s", which, e.what()));
  }
  for (const auto& m : set.messages()) {
    // The run refuses the same message (SchedulerBase's constructor).
    if (m.node >= cfg.num_nodes) {
      report.add("schedule.message-set-valid",
                 strformat("%s set: message %d: node %d outside the "
                           "cluster's %d nodes",
                           which, m.id, m.node, cfg.num_nodes),
                 msg_loc(m.id));
    }
    if (m.period <= sim::Time::zero()) continue;  // message-set-valid fired
    if (m.deadline <= sim::Time::zero() || m.deadline > m.period) {
      report.add("schedule.deadline-period",
                 strformat("%s message %d '%s': deadline %s outside (0, period "
                        "%s]",
                        which, m.id, m.name.c_str(),
                        sim::to_string(m.deadline).c_str(),
                        sim::to_string(m.period).c_str()),
                 msg_loc(m.id));
    }
  }
}

void check_hyperperiod(const net::MessageSet& statics, Report& report) {
  try {
    (void)statics.hyperperiod();
  } catch (const std::domain_error& e) {
    report.add("schedule.hyperperiod-overflow", e.what());
  }
}

void check_static_capacity(const flexray::ClusterConfig& cfg,
                           const net::MessageSet& statics, Report& report) {
  const std::int64_t capacity = cfg.static_slot_capacity_bits();
  const sim::Time cycle = cfg.cycle_duration();
  for (const auto& m : statics.messages()) {
    if (m.period > sim::Time::zero() && cycle > sim::Time::zero() &&
        m.period % cycle != sim::Time::zero()) {
      report.add("schedule.period-cycle",
                 strformat("static message %d '%s': period %s is not a "
                           "multiple of the %s cycle",
                           m.id, m.name.c_str(),
                           sim::to_string(m.period).c_str(),
                           sim::to_string(cycle).c_str()),
                 msg_loc(m.id));
    }
    if (m.size_bits > capacity) {
      report.add("schedule.slot-capacity",
                 strformat("static message %d '%s' is %lld bits; a %lld-MT "
                        "static slot carries %lld bits",
                        m.id, m.name.c_str(),
                        static_cast<long long>(m.size_bits),
                        static_cast<long long>(cfg.gd_static_slot.count()),
                        static_cast<long long>(capacity)),
                 msg_loc(m.id));
    }
  }
}

void check_minislot_budget(const flexray::ClusterConfig& cfg,
                           const net::MessageSet& dynamics, Report& report) {
  if (dynamics.empty()) return;
  if (cfg.latest_tx_minislot() < units::MinislotId{1}) {
    report.add("schedule.minislot-budget",
               "pLatestTx < 1: no dynamic transmission can ever start");
    return;
  }
  double demand_minislots_per_cycle = 0.0;
  const double cycle_s = cfg.cycle_duration().as_seconds();
  for (const auto& m : dynamics.messages()) {
    const std::int64_t need = cfg.minislots_for(m.size_bits);
    if (need > cfg.g_number_of_minislots) {
      report.add("schedule.minislot-budget",
                 strformat("dynamic message %d '%s' needs %lld minislots; the "
                        "segment has %lld",
                        m.id, m.name.c_str(), static_cast<long long>(need),
                        static_cast<long long>(cfg.g_number_of_minislots)),
                 msg_loc(m.id));
      continue;
    }
    if (m.period > sim::Time::zero()) {
      demand_minislots_per_cycle +=
          static_cast<double>(need) * cycle_s / m.period.as_seconds();
    }
  }
  if (demand_minislots_per_cycle >
      static_cast<double>(cfg.g_number_of_minislots)) {
    report.add("schedule.minislot-load",
               strformat("expected dynamic demand is %.1f minislots per cycle "
                      "against a single-channel budget of %lld",
                      demand_minislots_per_cycle,
                      static_cast<long long>(cfg.g_number_of_minislots)));
  }
}

void check_table(const flexray::ClusterConfig& cfg,
                 const sched::StaticScheduleTable& table, Report& report) {
  // Slot bounds and multiplexing-phase legality per assignment.
  for (const auto& a : table.assignments()) {
    if (a.slot.value() < 1 || a.slot.value() > cfg.g_number_of_static_slots) {
      report.add("schedule.slot-bounds",
                 strformat("message %d assigned to slot %lld outside [1, %lld]",
                        a.message_id, static_cast<long long>(a.slot.value()),
                        static_cast<long long>(cfg.g_number_of_static_slots)),
                 slot_loc(a.slot.value()));
    }
    // base_cycle is the first transmitting cycle, not a residue: the
    // builder shifts it past the message offset, so it may exceed the
    // repetition. Only negative bases and non-positive repetitions are
    // structurally illegal.
    if (a.repetition < 1 || a.base_cycle.value() < 0) {
      report.add("schedule.slot-bounds",
                 strformat("message %d: base cycle %lld / repetition %lld is "
                        "not a valid multiplexing phase",
                        a.message_id,
                        static_cast<long long>(a.base_cycle.value()),
                        static_cast<long long>(a.repetition)),
                 slot_loc(a.slot.value(), a.base_cycle.value()));
    }
  }

  // FrameID uniqueness per channel: within one static slot, two
  // occupants collide iff their phases ever coincide, i.e. iff
  // base_1 = base_2 (mod gcd(rep_1, rep_2)).
  std::map<std::int64_t, std::vector<const sched::SlotAssignment*>> by_slot;
  for (const auto& a : table.assignments()) {
    by_slot[a.slot.value()].push_back(&a);
  }
  for (const auto& [slot, occupants] : by_slot) {
    for (std::size_t i = 0; i < occupants.size(); ++i) {
      for (std::size_t j = i + 1; j < occupants.size(); ++j) {
        const auto& x = *occupants[i];
        const auto& y = *occupants[j];
        if (x.repetition < 1 || y.repetition < 1) continue;  // already flagged
        const std::int64_t g = std::gcd(x.repetition, y.repetition);
        if ((x.base_cycle - y.base_cycle) % g == 0) {
          report.add("schedule.frame-id-unique",
                     strformat("messages %d and %d share slot %lld with "
                            "coinciding phases (%lld/%lld and %lld/%lld)",
                            x.message_id, y.message_id,
                            static_cast<long long>(slot),
                            static_cast<long long>(x.base_cycle.value()),
                            static_cast<long long>(x.repetition),
                            static_cast<long long>(y.base_cycle.value()),
                            static_cast<long long>(y.repetition)),
                     slot_loc(slot));
        }
      }
    }
  }

  for (const int id : table.unplaced()) {
    report.add("schedule.unplaced",
               strformat("static message %d has no feasible slot phase", id),
               msg_loc(id));
  }
  for (const int id : table.deadline_risk()) {
    report.add("schedule.deadline-risk",
               strformat("static message %d: fixed placement latency exceeds "
                      "its deadline",
                      id),
               msg_loc(id));
  }
}

// --- Semantic rules ------------------------------------------------------

void check_theorem1(const ScheduleLintInput& input, Report& report) {
  const auto& statics = *input.statics;
  const auto& plan = *input.plan;
  if (plan.copies.size() != statics.size()) {
    report.add("schedule.theorem1-recheck",
               strformat("plan covers %zu messages but the static set has %zu",
                      plan.copies.size(), statics.size()));
    return;
  }
  for (std::size_t z = 0; z < plan.copies.size(); ++z) {
    if (plan.copies[z] < 0) {
      report.add("schedule.theorem1-recheck",
                 strformat("negative copy count k_%zu = %d", z, plan.copies[z]),
                 msg_loc(statics[z].id));
      return;
    }
  }
  const double recomputed =
      fault::log_set_reliability(statics, plan.copies, input.ber, input.u);
  // The solver accumulates log R incrementally across greedy steps, so
  // it drifts O(steps * ulp) from a fresh summation; a genuinely wrong
  // plan (any k_z off by one) moves log R by a frame-error-probability
  // scale, many orders of magnitude above this floor.
  const double tol = std::max(1e-9, 1e-6 * std::fabs(recomputed));
  if (std::fabs(recomputed - plan.log_reliability) > tol) {
    report.add("schedule.theorem1-recheck",
               strformat("plan reports log R = %.12g but Theorem 1 recomputes "
                      "%.12g at ber=%g",
                      plan.log_reliability, recomputed, input.ber));
  }
  if (input.rho > 0.0) {
    const double target = std::log(input.rho);
    if (plan.degraded) {
      report.add("schedule.plan-degraded",
                 strformat("rho=%.10g unreachable within the copy bound; plan "
                        "achieves R=%.10g",
                        input.rho, std::exp(recomputed)));
    } else if (recomputed < target - tol) {
      report.add("schedule.theorem1-recheck",
                 strformat("plan claims rho met but recomputed R=%.10g < "
                        "rho=%.10g",
                        std::exp(recomputed), input.rho));
    }
  }
}

void check_slack_and_rta(const ScheduleLintInput& input, Report& report) {
  const sched::TaskSet set =
      sched::wire_task_set(*input.statics, *input.cluster);
  try {
    set.validate();
  } catch (const std::invalid_argument& e) {
    // Structural message rules should have caught this; surface it
    // rather than crashing on a malformed semantic model.
    report.add("schedule.message-set-valid",
               strformat("static task model: %s", e.what()));
    return;
  }

  // RTA cross-check (sufficient test: a pass proves schedulability for
  // any offsets; a miss is only a risk, hence warning severity).
  const sched::RtaResult rta = sched::response_time_analysis(set);
  if (!rta.schedulable) {
    for (std::size_t level = 0; level < rta.response_times.size(); ++level) {
      const auto& task = set.at_level(level);
      if (rta.response_times[level] > task.deadline) {
        report.add(
            "schedule.rta-deadline",
            strformat("static message %d: worst-case response %s exceeds "
                   "deadline %s",
                   task.id,
                   rta.response_times[level] == sim::Time::max()
                       ? "(divergent)"
                       : sim::to_string(rta.response_times[level]).c_str(),
                   sim::to_string(task.deadline).c_str()),
            msg_loc(task.id));
      }
    }
  }

  // The offline periodic schedule over three hyperperiods (the window
  // slack queries fold into) must meet every deadline.
  if (sched::simulate_periodic(set, set.hyperperiod() * 3)
          .any_deadline_missed) {
    report.add("schedule.slack-infeasible",
               "offline periodic schedule of the static set misses a "
               "deadline; slack queries are not meaningful");
  }
}

}  // namespace

Report lint_schedule(const ScheduleLintInput& input) {
  Report report;
  if (input.cluster == nullptr) {
    report.add("schedule.config-valid", "no cluster configuration provided");
    return report;
  }

  check_config(*input.cluster, report);
  check_macrotick_roundtrip(*input.cluster, report);
  if (input.statics != nullptr) {
    check_message_set(*input.cluster, *input.statics, "static", report);
    check_hyperperiod(*input.statics, report);
    check_static_capacity(*input.cluster, *input.statics, report);
  }
  if (input.dynamics != nullptr) {
    check_message_set(*input.cluster, *input.dynamics, "dynamic", report);
    check_minislot_budget(*input.cluster, *input.dynamics, report);
  }
  if (input.table != nullptr) {
    check_table(*input.cluster, *input.table, report);
  }

  // Semantic phase: meaningless over a structurally broken input, like
  // type checking after a parse error.
  if (report.has_errors()) return report;

  if (input.plan != nullptr && input.statics != nullptr) {
    check_theorem1(input, report);
  }
  if (input.statics != nullptr && !input.statics->empty()) {
    check_slack_and_rta(input, report);
  }
  return report;
}

}  // namespace coeff::analysis
