// Acceptance scenario for the reliability-monitoring loop: the wire BER
// steps 1e-7 -> 1e-5 mid-run. With the monitor enabled the drift is
// detected, the differentiated solver re-runs against the estimated BER
// and the swapped plan restores reliability >= rho at the new BER. The
// identical scenario without the monitor keeps flying the stale plan,
// which demonstrably misses rho at the stepped BER.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/experiment.hpp"
#include "fault/reliability.hpp"
#include "net/workloads.hpp"
#include "sim/random.hpp"
#include "sim/trace.hpp"

namespace coeff::core {
namespace {

constexpr double kPlannedBer = 1e-7;
constexpr double kSteppedBer = 1e-5;

ExperimentConfig step_config(sim::Trace* trace, bool enable_monitor) {
  ExperimentConfig config;
  config.cluster = paper_cluster_apps();
  config.statics = net::brake_by_wire();
  config.ber = kPlannedBer;
  config.sil = fault::Sil::kSil3;
  config.batch_window = sim::seconds(1);  // 1000 cycles at 1 ms/cycle
  config.seed = 42;
  config.ber_step_at = sim::millis(300);
  config.ber_step = kSteppedBer;
  config.enable_monitor = enable_monitor;
  config.monitor.window_cycles = 100;
  config.monitor.min_window_frames = 500;
  config.monitor.trigger_factor = 5.0;
  config.monitor.cooldown_cycles = 100;
  config.trace = trace;
  return config;
}

TEST(StepResponseTest, MonitorDetectsDriftAndReplansToMeetRho) {
  sim::Trace trace;
  const auto config = step_config(&trace, /*enable_monitor=*/true);
  const auto result = run_experiment(config, SchemeKind::kCoEfficient);

  // Drift detected and at least one online re-plan happened, surfaced
  // both in the metrics and the structured trace.
  EXPECT_GE(result.run.plan_swaps, 1);
  EXPECT_GE(trace.count(sim::TraceKind::kBerDrift), 1u);
  EXPECT_GE(trace.count(sim::TraceKind::kPlanSwap), 1u);

  // The swapped plan was solved against the estimated (stepped) BER and
  // meets the goal there: not degraded, achieved >= target.
  EXPECT_FALSE(result.run.plan_degraded);
  EXPECT_GE(result.run.plan_achieved_log_r, result.run.plan_target_log_r);

  // And it restores reliability at the true stepped BER: Theorem 1 over
  // the final copy vector, evaluated at 1e-5, clears log rho.
  const double log_rho = std::log(result.rho_target);
  const double post_swap_log_r = fault::log_set_reliability(
      config.statics, result.final_plan.copies, kSteppedBer, config.u);
  EXPECT_GE(post_swap_log_r, log_rho);

  // The re-plan bought real redundancy, not a no-op swap.
  const auto initial = [&] {
    fault::SolverOptions opt;
    opt.ber = kPlannedBer;
    opt.rho = result.rho_target;
    opt.u = config.u;
    opt.max_copies_per_message = config.max_copies;
    return fault::solve_differentiated(config.statics, opt);
  }();
  EXPECT_GT(result.final_plan.total_copies(), initial.total_copies());
}

TEST(StepResponseTest, WithoutMonitorTheStalePlanMissesRho) {
  const auto config = step_config(nullptr, /*enable_monitor=*/false);
  const auto result = run_experiment(config, SchemeKind::kCoEfficient);

  // No monitor: the plan never changes.
  EXPECT_EQ(result.run.plan_swaps, 0);

  // The plan solved for 1e-7 still meets rho *at 1e-7* ...
  const double log_rho = std::log(result.rho_target);
  EXPECT_GE(fault::log_set_reliability(config.statics,
                                       result.final_plan.copies, kPlannedBer,
                                       config.u),
            log_rho);
  // ... but at the stepped BER it demonstrably misses the goal.
  EXPECT_LT(fault::log_set_reliability(config.statics,
                                       result.final_plan.copies, kSteppedBer,
                                       config.u),
            log_rho);
}

TEST(StepResponseTest, MonitoredRunIsDeterministicPerSeed) {
  const auto config = step_config(nullptr, /*enable_monitor=*/true);
  const auto a = run_experiment(config, SchemeKind::kCoEfficient);
  const auto b = run_experiment(config, SchemeKind::kCoEfficient);
  EXPECT_EQ(a.run.plan_swaps, b.run.plan_swaps);
  EXPECT_EQ(a.final_plan.copies, b.final_plan.copies);
  EXPECT_EQ(a.run.statics.delivered, b.run.statics.delivered);
  EXPECT_EQ(a.run.statics.copies_corrupted, b.run.statics.copies_corrupted);
  EXPECT_DOUBLE_EQ(a.run.plan_achieved_log_r, b.run.plan_achieved_log_r);
}

TEST(StepResponseTest, DegradedModeShedsDynamicsAndFlagsThePlan) {
  // An unreachable goal (harsh BER, tight copy cap) does not throw: the
  // scheduler flies the best achievable plan, flags it degraded, sheds
  // dynamic-segment load and reports both through the metrics and the
  // trace.
  sim::Trace trace;
  ExperimentConfig config;
  config.cluster = paper_cluster_apps();
  config.statics = net::brake_by_wire();
  sim::Rng rng(7);
  net::SaeAperiodicOptions sae;
  sae.count = 10;
  config.dynamics = net::sae_aperiodic(sae, rng);
  config.ber = 0.01;
  config.rho = 1.0 - 1e-9;
  config.max_copies = 2;
  config.batch_window = sim::millis(200);
  config.trace = &trace;
  const auto result = run_experiment(config, SchemeKind::kCoEfficient);

  EXPECT_TRUE(result.run.plan_degraded);
  EXPECT_TRUE(result.final_plan.degraded);
  EXPECT_LT(result.run.plan_achieved_log_r, result.run.plan_target_log_r);
  // Every dynamic arrival was shed (and therefore missed), each one
  // surfaced as a kLoadShed trace record.
  EXPECT_GT(result.run.dynamic_frames_shed, 0);
  EXPECT_EQ(result.run.dynamic_frames_shed, result.run.dynamics.released);
  EXPECT_EQ(result.run.dynamics.delivered, 0);
  EXPECT_EQ(trace.count(sim::TraceKind::kLoadShed),
            static_cast<std::size_t>(result.run.dynamic_frames_shed));
  // Degraded mode keeps stolen static slack for the safety-critical
  // statics: no dynamic frames ride the static segment.
  EXPECT_EQ(result.run.dynamic_in_static_slots, 0);
}

}  // namespace
}  // namespace coeff::core
