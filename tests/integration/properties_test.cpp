// Parameterized property sweeps (TEST_P): invariants that must hold for
// every combination of cluster geometry, scheme, fault rate, and
// arrival process.
#include <gtest/gtest.h>

#include <tuple>

#include "core/experiment.hpp"
#include "fault/reliability.hpp"
#include "net/workloads.hpp"

namespace coeff::core {
namespace {

// ---------------------------------------------------------------------
// Property: for every (minislots, scheme, ber) combination, a full run
// settles every instance, never over-uses the wire, and terminates.
// ---------------------------------------------------------------------
using RunParams = std::tuple<std::int64_t /*minislots*/, SchemeKind, double>;

class RunInvariants : public ::testing::TestWithParam<RunParams> {};

TEST_P(RunInvariants, SettleAndConserve) {
  const auto [minislots, scheme, ber] = GetParam();
  ExperimentConfig config;
  config.cluster = paper_cluster_dynamic_suite(minislots);
  sim::Rng rng(29);
  net::SyntheticStaticOptions statics;
  statics.count = 40;
  config.statics = net::synthetic_static(statics, rng);
  net::SaeAperiodicOptions sae;
  sae.static_slots = 80;
  config.dynamics = net::sae_aperiodic(sae, rng);
  config.ber = ber;
  config.sil = fault::Sil::kSil3;
  config.batch_window = sim::millis(250);
  const auto r = run_experiment(config, scheme);

  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.run.statics.delivered + r.run.statics.missed,
            r.run.statics.released);
  EXPECT_EQ(r.run.dynamics.delivered + r.run.dynamics.missed,
            r.run.dynamics.released);
  EXPECT_LE(r.run.static_wire_busy, r.run.static_wire_capacity);
  EXPECT_LE(r.run.dynamic_wire_busy, r.run.dynamic_wire_capacity);
  EXPECT_GE(r.run.running_time, sim::Time::zero());
  if (ber == 0.0) {
    EXPECT_EQ(r.run.statics.copies_corrupted, 0);
    EXPECT_EQ(r.run.dynamics.copies_corrupted, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RunInvariants,
    ::testing::Combine(::testing::Values<std::int64_t>(25, 50, 100),
                       ::testing::Values(SchemeKind::kCoEfficient,
                                         SchemeKind::kFspec),
                       ::testing::Values(0.0, 1e-7, 1e-5)));

// ---------------------------------------------------------------------
// Property: the Theorem-1 solver meets every goal it accepts, for a
// sweep of (ber, gamma) pairs, and differentiated never costs more
// bandwidth than uniform.
// ---------------------------------------------------------------------
using SolverParams = std::tuple<double /*ber*/, double /*gamma*/>;

class SolverProperties : public ::testing::TestWithParam<SolverParams> {};

TEST_P(SolverProperties, MeetsGoalAndBeatsUniform) {
  const auto [ber, gamma] = GetParam();
  const auto set = net::brake_by_wire();
  fault::SolverOptions opt;
  opt.ber = ber;
  opt.rho = 1.0 - gamma;
  opt.max_copies_per_message = 12;
  const auto diff = fault::solve_differentiated(set, opt);
  const auto uni = fault::solve_uniform(set, opt);
  EXPECT_GE(diff.reliability(), opt.rho);
  EXPECT_GE(uni.reliability(), opt.rho);
  EXPECT_LE(diff.added_load_bits_per_second, uni.added_load_bits_per_second);
  // Consistency: re-evaluating the plan reproduces its stored value.
  EXPECT_NEAR(fault::log_set_reliability(set, diff.copies, ber, opt.u),
              diff.log_reliability, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SolverProperties,
    ::testing::Combine(::testing::Values(1e-8, 1e-7, 1e-6),
                       ::testing::Values(1e-5, 1e-7, 1e-9)));

// ---------------------------------------------------------------------
// Property: arrival generators respect the horizon and ordering for all
// processes.
// ---------------------------------------------------------------------
class ArrivalProperties
    : public ::testing::TestWithParam<net::ArrivalProcess> {};

TEST_P(ArrivalProperties, SortedAndWithinHorizon) {
  net::Message m;
  m.period = sim::millis(7);
  m.offset = sim::micros(300);
  sim::Rng rng(5);
  net::ArrivalOptions opt;
  opt.process = GetParam();
  opt.burst = 4;
  const auto horizon = sim::millis(500);
  const auto times = net::arrivals(m, horizon, opt, rng);
  ASSERT_FALSE(times.empty());
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_GE(times[i], sim::Time::zero());
    EXPECT_LT(times[i], horizon);
    if (i > 0) {
      EXPECT_GE(times[i], times[i - 1]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllProcesses, ArrivalProperties,
                         ::testing::Values(net::ArrivalProcess::kPeriodic,
                                           net::ArrivalProcess::kPoisson,
                                           net::ArrivalProcess::kBursty));

}  // namespace
}  // namespace coeff::core
