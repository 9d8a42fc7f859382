#include "fault/reliability.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "fault/ber.hpp"

namespace coeff::fault {
namespace {

net::MessageSet two_messages() {
  net::Message a;
  a.id = 1;
  a.period = sim::millis(1);
  a.deadline = sim::millis(1);
  a.size_bits = 1500;
  net::Message b;
  b.id = 2;
  b.period = sim::millis(50);
  b.deadline = sim::millis(50);
  b.size_bits = 300;
  return net::MessageSet({a, b});
}

TEST(ReliabilityTest, Theorem1MatchesManualProduct) {
  const auto set = two_messages();
  const double ber = 1e-7;
  const sim::Time u = sim::seconds(60);
  const std::vector<int> copies{2, 1};
  const double p1 = frame_failure_probability(1500, ber);
  const double p2 = frame_failure_probability(300, ber);
  const double expected =
      std::pow(1.0 - std::pow(p1, 3), 60.0 / 0.001) *
      std::pow(1.0 - std::pow(p2, 2), 60.0 / 0.05);
  EXPECT_NEAR(set_reliability(set, copies, ber, u), expected, 1e-9);
}

TEST(ReliabilityTest, MissingCopiesDefaultToZero) {
  const auto set = two_messages();
  const double with_short = log_set_reliability(set, {1}, 1e-7,
                                                sim::seconds(1));
  const double with_full = log_set_reliability(set, {1, 0}, 1e-7,
                                               sim::seconds(1));
  EXPECT_DOUBLE_EQ(with_short, with_full);
}

TEST(ReliabilityTest, MoreCopiesNeverHurt) {
  const auto set = two_messages();
  double prev = log_set_reliability(set, {0, 0}, 1e-6, sim::seconds(3600));
  for (int k = 1; k <= 4; ++k) {
    const double lr =
        log_set_reliability(set, {k, k}, 1e-6, sim::seconds(3600));
    EXPECT_GT(lr, prev);
    prev = lr;
  }
}

TEST(SolverTest, DifferentiatedMeetsGoal) {
  const auto set = two_messages();
  SolverOptions opt;
  opt.ber = 1e-7;
  opt.rho = 1.0 - 1e-7;
  opt.u = sim::seconds(3600);
  const auto plan = solve_differentiated(set, opt);
  EXPECT_GE(plan.log_reliability, std::log(opt.rho));
  EXPECT_GE(plan.reliability(), opt.rho);
}

TEST(SolverTest, DifferentiatedIsDifferentiated) {
  // The fast large message needs more copies than the slow small one.
  const auto set = two_messages();
  SolverOptions opt;
  opt.ber = 1e-7;
  opt.rho = 1.0 - 1e-7;
  opt.u = sim::seconds(3600);
  const auto plan = solve_differentiated(set, opt);
  ASSERT_EQ(plan.copies.size(), 2u);
  EXPECT_GT(plan.copies[0], plan.copies[1]);
}

TEST(SolverTest, DifferentiatedIsMinimalAtEveryStep) {
  // Removing one copy from any message must violate the goal; otherwise
  // the greedy stopped too late.
  const auto set = two_messages();
  SolverOptions opt;
  opt.ber = 1e-6;
  opt.rho = 1.0 - 1e-6;
  opt.u = sim::seconds(3600);
  const auto plan = solve_differentiated(set, opt);
  const double target = std::log(opt.rho);
  for (std::size_t z = 0; z < plan.copies.size(); ++z) {
    if (plan.copies[z] == 0) continue;
    auto fewer = plan.copies;
    --fewer[z];
    EXPECT_LT(log_set_reliability(set, fewer, opt.ber, opt.u), target)
        << "copy " << z << " was unnecessary";
  }
}

TEST(SolverTest, ZeroGoalNeedsNoCopies) {
  const auto set = two_messages();
  SolverOptions opt;
  opt.rho = 0.0;
  const auto plan = solve_differentiated(set, opt);
  EXPECT_EQ(plan.total_copies(), 0);
}

TEST(SolverTest, UnreachableGoalDegradesByDefault) {
  const auto set = two_messages();
  SolverOptions opt;
  opt.ber = 0.01;
  opt.rho = 1.0 - 1e-9;
  opt.u = sim::seconds(3600);
  opt.max_copies_per_message = 2;
  const auto diff = solve_differentiated(set, opt);
  EXPECT_TRUE(diff.degraded);
  EXPECT_LT(diff.log_reliability, diff.target_log_reliability);
  // The degraded plan is still the best available: every message sits at
  // the copy cap (nothing left to add).
  for (const int k : diff.copies) EXPECT_EQ(k, opt.max_copies_per_message);
  const auto uni = solve_uniform(set, opt);
  EXPECT_TRUE(uni.degraded);
  EXPECT_LT(uni.log_reliability, uni.target_log_reliability);
  for (const int k : uni.copies) EXPECT_EQ(k, opt.max_copies_per_message);
}

TEST(SolverTest, FeasiblePlanIsNotDegraded) {
  const auto set = two_messages();
  SolverOptions opt;
  opt.ber = 1e-7;
  opt.rho = 1.0 - 1e-7;
  opt.u = sim::seconds(3600);
  const auto plan = solve_differentiated(set, opt);
  EXPECT_FALSE(plan.degraded);
  EXPECT_NEAR(plan.target_log_reliability, std::log(opt.rho), 1e-15);
  EXPECT_GE(plan.log_reliability, plan.target_log_reliability);
}

TEST(SolverTest, InvalidOptionsThrow) {
  const auto set = two_messages();
  SolverOptions opt;
  opt.rho = 1.0;  // must be < 1
  EXPECT_THROW((void)solve_differentiated(set, opt), std::invalid_argument);
  opt.rho = 0.5;
  opt.u = sim::Time::zero();
  EXPECT_THROW((void)solve_differentiated(set, opt), std::invalid_argument);
  opt.u = sim::seconds(1);
  opt.ber = 1.5;  // probability, must live in [0, 1]
  EXPECT_THROW((void)solve_differentiated(set, opt), std::invalid_argument);
}

TEST(SolverTest, InvalidOptionsNameTheOffender) {
  // The error message must say which option is bad, not just "invalid".
  const auto set = two_messages();
  SolverOptions opt;
  opt.rho = 0.5;
  opt.ber = -0.25;
  try {
    (void)solve_differentiated(set, opt);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ber"), std::string::npos)
        << e.what();
  }
  opt.ber = 1e-7;
  opt.rho = 1.25;
  try {
    (void)solve_differentiated(set, opt);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rho"), std::string::npos)
        << e.what();
  }
  opt.rho = 0.5;
  opt.u = sim::Time::zero();
  try {
    (void)solve_differentiated(set, opt);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("u"), std::string::npos) << e.what();
  }
}

TEST(SolverTest, UniformMeetsGoalWithEqualCopies) {
  const auto set = two_messages();
  SolverOptions opt;
  opt.ber = 1e-7;
  opt.rho = 1.0 - 1e-7;
  opt.u = sim::seconds(3600);
  const auto plan = solve_uniform(set, opt);
  EXPECT_GE(plan.reliability(), opt.rho);
  ASSERT_EQ(plan.copies.size(), 2u);
  EXPECT_EQ(plan.copies[0], plan.copies[1]);
}

TEST(SolverTest, DifferentiatedAddsLessLoadThanUniform) {
  // The headline claim: meeting the same rho costs less bandwidth when
  // retransmissions are differentiated.
  const auto set = two_messages();
  SolverOptions opt;
  opt.ber = 1e-7;
  opt.rho = 1.0 - 1e-7;
  opt.u = sim::seconds(3600);
  const auto diff = solve_differentiated(set, opt);
  const auto uni = solve_uniform(set, opt);
  EXPECT_LE(diff.added_load_bits_per_second,
            uni.added_load_bits_per_second);
}

TEST(SolverTest, UniformRoundsAccountsForPairedCopies) {
  const auto set = two_messages();
  SolverOptions opt;
  opt.ber = 1e-7;
  opt.rho = 1.0 - 1e-7;
  opt.u = sim::seconds(3600);
  const int rounds2 = solve_uniform_rounds(set, opt, 2);
  const int rounds1 = solve_uniform_rounds(set, opt, 1);
  // Mirrored pairs square the per-round loss, so fewer rounds suffice.
  EXPECT_LE(rounds2, rounds1);
  EXPECT_GE(rounds2, 1);
  // Verify the returned round count actually meets the goal.
  std::vector<int> copies(set.size(), rounds2 * 2 - 1);
  EXPECT_GE(log_set_reliability(set, copies, opt.ber, opt.u),
            std::log(opt.rho));
}

TEST(SolverTest, UniformRoundsValidation) {
  const auto set = two_messages();
  SolverOptions opt;
  opt.rho = 0.9;
  EXPECT_THROW((void)solve_uniform_rounds(set, opt, 0),
               std::invalid_argument);
}

TEST(PlanTest, Accessors) {
  RetransmissionPlan plan;
  plan.copies = {1, 3, 0};
  plan.log_reliability = std::log(0.5);
  EXPECT_EQ(plan.total_copies(), 4);
  EXPECT_EQ(plan.max_copies(), 3);
  EXPECT_NEAR(plan.reliability(), 0.5, 1e-12);
}

}  // namespace
}  // namespace coeff::fault
