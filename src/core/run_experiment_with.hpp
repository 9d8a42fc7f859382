// The body of run_experiment, generic over the cycle walk.
//
// run_experiment (core/experiment.hpp) is the only non-template entry
// point and instantiates this with flexray::Cluster. The differential
// tests instantiate it with the slot-by-slot reference walk
// (tests/support/reference_cluster.hpp), so both walks run the exact same
// scheduler, fault model, arrivals and accounting. `ClusterT` needs
// flexray::Cluster's constructor, set_batch_corruption,
// set_fault_provider, run_until, run_cycles, cycles_run and channel.
#pragma once

#include <chrono>
#include <memory>
#include <vector>

#include "core/experiment.hpp"
#include "core/hosa.hpp"
#include "fault/fault_model.hpp"
#include "fault/reliability.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace coeff::core {

template <class ClusterT>
[[nodiscard]] ExperimentResult run_experiment_with(
    const ExperimentConfig& config, SchemeKind scheme) {
  config.cluster.validate();
  const double rho = config.rho > 0.0
                         ? config.rho
                         : fault::reliability_goal(config.sil, config.u);

  fault::SolverOptions solver;
  solver.ber = config.ber;
  solver.rho = rho;
  solver.u = config.u;
  solver.max_copies_per_message = config.max_copies;

  ExperimentResult result;
  result.scheme = scheme;
  result.rho_target = rho;

  std::unique_ptr<SchedulerBase> sched;
  CoEfficientScheduler* coeff_ptr = nullptr;
  if (scheme == SchemeKind::kCoEfficient) {
    CoEfficientOptions opt;
    opt.ber = config.ber;
    opt.rho = rho;
    opt.u = config.u;
    opt.max_copies_per_message = config.max_copies;
    opt.throw_on_infeasible = config.throw_on_infeasible;
    opt.enable_monitor = config.enable_monitor;
    opt.monitor = config.monitor;
    opt.use_uniform_plan = config.ablation_uniform_plan;
    opt.disable_slack_stealing = config.ablation_no_slack;
    opt.single_channel_dynamics = config.ablation_single_channel;
    opt.vote_replicas = config.vote_replicas;
    opt.silent_node_detection = config.silent_node_detection;
    opt.silent_cycle_threshold = config.silent_cycle_threshold;
    opt.mode_policy = config.mode_policy;
    opt.power = config.power;
    auto coeff = std::make_unique<CoEfficientScheduler>(
        config.cluster, config.statics, config.dynamics, config.batch_window,
        opt);
    result.reliability_scheduled = rho > 0.0 ? coeff->plan().reliability() : 1.0;
    result.plan_added_load_bits_per_second =
        coeff->plan().added_load_bits_per_second;
    coeff_ptr = coeff.get();
    sched = std::move(coeff);
  } else if (scheme == SchemeKind::kHosa) {
    // HOSA's mirrored pair gives (1 - p^2)^{u/T} per message by design;
    // no tunable redundancy knob exists.
    std::vector<int> copies(config.statics.size(), 1);
    result.reliability_scheduled =
        fault::set_reliability(config.statics, copies, config.ber, config.u);
    sched = std::make_unique<HosaScheduler>(config.cluster, config.statics,
                                            config.dynamics,
                                            config.batch_window);
  } else {
    FspecOptions opt;
    opt.rounds = rho > 0.0 ? fault::solve_uniform_rounds(config.statics,
                                                         solver, 2)
                           : 1;
    auto fspec = std::make_unique<FspecScheduler>(
        config.cluster, config.statics, config.dynamics, config.batch_window,
        opt);
    result.fspec_rounds = opt.rounds;
    // Theoretical reliability of FSPEC's *intent*: `rounds` mirrored
    // pairs per instance. Instances the serial round train drops under
    // load show up as misses, not here.
    std::vector<int> copies(config.statics.size(), 2 * opt.rounds - 1);
    result.reliability_scheduled =
        fault::set_reliability(config.statics, copies, config.ber, config.u);
    sched = std::move(fspec);
  }

  if (config.drain_batch) sched->set_drop_expired_dynamics(false);
  sched->set_trace(config.trace);

  sim::Engine engine;
  fault::FaultModelConfig fm = config.fault_model;
  fm.ber = config.ber;  // one knob for the planner and the iid/common wire
  const auto fault_model = fault::make_fault_model(fm, config.seed);
  if (config.ber_step >= 0.0 && config.ber_step_at > sim::Time::zero()) {
    fault_model->schedule_ber_step(config.ber_step_at, config.ber_step);
  }
  if (config.ber_step2 >= 0.0 && config.ber_step2_at > sim::Time::zero()) {
    fault_model->schedule_ber_step(config.ber_step2_at, config.ber_step2);
  }
  ClusterT cluster(engine, config.cluster, *sched,
                   fault_model->as_corruption_fn(), config.trace);
  // Batched verdicts draw from the same model in wire order, so the
  // verdict stream matches per-frame draws bit for bit.
  cluster.set_batch_corruption(fault_model->as_batch_fn());

  // Structural fault domain: the injector must outlive the cluster run.
  std::unique_ptr<fault::NodeFaultModel> structural;
  if (!config.structural.empty()) {
    config.structural.validate();
    structural = std::make_unique<fault::NodeFaultModel>(config.structural,
                                                         config.seed);
    cluster.set_fault_provider(structural.get());
  }

  // Pre-compute dynamic arrivals over the batch window and inject them
  // as engine events so they surface mid-cycle like real interrupts.
  sim::Rng arrival_rng(config.seed ^ 0x9E3779B97F4A7C15ULL);
  SchedulerBase* sched_ptr = sched.get();
  for (const auto& m : config.dynamics.messages()) {
    for (const sim::Time at :
         net::arrivals(m, config.batch_window, config.arrivals, arrival_rng)) {
      engine.schedule_at(at, [sched_ptr, id = m.id, at] {
        sched_ptr->add_dynamic_arrival(id, at);
      });
    }
  }

  // Run the batch window, then drain whatever the scheme still owes.
  const auto walk_begin = std::chrono::steady_clock::now();
  cluster.run_until(config.batch_window);
  const std::int64_t window_cycles = cluster.cycles_run();
  const std::int64_t cap = window_cycles * config.max_drain_factor + 64;
  while (sched->work_remaining() && cluster.cycles_run() < cap) {
    cluster.run_cycles(1);
  }
  result.walk_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    walk_begin)
          .count();
  result.drained = !sched->work_remaining();
  sched->finalize(engine.now());

  RunStats& stats = sched->stats();
  stats.running_time = sched->last_activity();
  const auto& cfg = config.cluster;
  const std::int64_t cycles = cluster.cycles_run();
  stats.static_wire_capacity =
      cfg.static_slot_duration() * cfg.g_number_of_static_slots * cycles *
      flexray::kNumChannels;
  stats.dynamic_wire_capacity = cfg.minislot_duration() *
                                cfg.g_number_of_minislots * cycles *
                                flexray::kNumChannels;
  for (auto id : {flexray::ChannelId::kA, flexray::ChannelId::kB}) {
    const auto& ch = cluster.channel(id).stats();
    stats.static_wire_busy += ch.busy_static;
    stats.dynamic_wire_busy += ch.busy_dynamic;
  }
  result.cycles_run = cycles;
  result.compiled_cycles = cycles;
  if (coeff_ptr != nullptr) result.final_plan = coeff_ptr->plan();
  result.run = stats;
  return result;
}

}  // namespace coeff::core
