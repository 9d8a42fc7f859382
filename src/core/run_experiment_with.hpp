// The body of run_experiment, generic over the cycle walk.
//
// run_experiment (core/experiment.hpp) is the only non-template entry
// point and instantiates this with flexray::Cluster. The differential
// tests instantiate it with the slot-by-slot reference walk
// (tests/support/reference_cluster.hpp), so both walks run the exact same
// scheduler, fault model, arrivals and accounting. `ClusterT` needs
// flexray::Cluster's constructor, set_fault_provider, set_arrivals,
// run_until, run_cycles, cycles_run, now and channel.
#pragma once

#include <chrono>
#include <memory>
#include <vector>

#include "core/experiment.hpp"
#include "core/hosa.hpp"
#include "fault/fault_model.hpp"
#include "fault/reliability.hpp"
#include "flexray/policy.hpp"
#include "sim/random.hpp"

namespace coeff::core {

template <class ClusterT>
[[nodiscard]] ExperimentResult run_experiment_with(
    const ExperimentConfig& config, SchemeKind scheme) {
  config.cluster.validate();
  const fault::SolverOptions solver = solver_options(config);
  const double rho = solver.rho;

  ExperimentResult result;
  result.scheme = scheme;
  result.rho_target = rho;

  std::unique_ptr<SchedulerBase> sched;
  CoEfficientScheduler* coeff_ptr = nullptr;
  if (scheme == SchemeKind::kCoEfficient) {
    CoEfficientOptions opt;
    opt.ber = solver.ber;
    opt.rho = solver.rho;
    opt.u = solver.u;
    opt.max_copies_per_message = solver.max_copies_per_message;
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
    opt.rounds = fspec_rounds(config.statics, solver);
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

  fault::FaultModelConfig fm = config.fault_model;
  fm.ber = config.ber;  // one knob for the planner and the iid/common wire
  const auto fault_model = fault::make_fault_model(fm, config.seed);
  if (config.ber_step >= 0.0 && config.ber_step_at > sim::Time::zero()) {
    fault_model->schedule_ber_step(config.ber_step_at, config.ber_step);
  }
  if (config.ber_step2 >= 0.0 && config.ber_step2_at > sim::Time::zero()) {
    fault_model->schedule_ber_step(config.ber_step2_at, config.ber_step2);
  }
  ClusterT cluster(config.cluster, *sched, fault_model->as_corruption_fn(),
                   config.trace);

  // Structural fault domain: the injector must outlive the cluster run.
  std::unique_ptr<fault::NodeFaultModel> structural;
  if (!config.structural.empty()) {
    structural = std::make_unique<fault::NodeFaultModel>(
        config.structural, config.cluster.num_nodes, config.seed);
    cluster.set_fault_provider(structural.get());
  }

  // Pre-compute dynamic arrivals over the batch window. The walk hands
  // each one to the scheduler at the first slot or minislot boundary at
  // or after its time, so arrivals surface mid-cycle like real
  // interrupts.
  sim::Rng arrival_rng(config.seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<flexray::Arrival> arrivals;
  for (const auto& m : config.dynamics.messages()) {
    for (const sim::Time at :
         net::arrivals(m, config.batch_window, config.arrivals, arrival_rng)) {
      arrivals.push_back({at, m.id});
    }
  }
  cluster.set_arrivals(std::move(arrivals));

  // Run the batch window, then drain whatever the scheme still owes.
  const auto walk_begin = std::chrono::steady_clock::now();
  cluster.run_until(config.batch_window);
  const std::int64_t window_cycles = cluster.cycles_run();
  // Safety cap on the post-window drain, in multiples of the window.
  constexpr std::int64_t kMaxDrainFactor = 64;
  const std::int64_t cap = window_cycles * kMaxDrainFactor + 64;
  while (sched->work_remaining() && cluster.cycles_run() < cap) {
    cluster.run_cycles(1);
  }
  result.walk_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    walk_begin)
          .count();
  result.drained = !sched->work_remaining();
  sched->finalize(cluster.now());

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
