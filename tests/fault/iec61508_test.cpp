#include "fault/iec61508.hpp"

#include <gtest/gtest.h>

namespace coeff::fault {
namespace {

TEST(Iec61508Test, SilBands) {
  EXPECT_DOUBLE_EQ(max_failure_probability_per_hour(Sil::kSil1), 1e-5);
  EXPECT_DOUBLE_EQ(max_failure_probability_per_hour(Sil::kSil2), 1e-6);
  EXPECT_DOUBLE_EQ(max_failure_probability_per_hour(Sil::kSil3), 1e-7);
  EXPECT_DOUBLE_EQ(max_failure_probability_per_hour(Sil::kSil4), 1e-9);
}

TEST(Iec61508Test, ReliabilityGoalOverOneHour) {
  EXPECT_DOUBLE_EQ(reliability_goal(Sil::kSil3, sim::seconds(3600)),
                   1.0 - 1e-7);
}

TEST(Iec61508Test, ReliabilityGoalScalesWithTime) {
  const double one_hour = reliability_goal(Sil::kSil2, sim::seconds(3600));
  const double half_hour = reliability_goal(Sil::kSil2, sim::seconds(1800));
  EXPECT_GT(half_hour, one_hour);
  EXPECT_NEAR(1.0 - half_hour, (1.0 - one_hour) / 2.0, 1e-15);
}

TEST(Iec61508Test, AbsurdlyLongWindowSaturatesAtZero) {
  // gamma >= 1 means no reliability can be promised.
  EXPECT_DOUBLE_EQ(
      reliability_goal(Sil::kSil1, sim::seconds(3600) * 200'000), 0.0);
}

TEST(Iec61508Test, NonPositiveWindowThrows) {
  EXPECT_THROW((void)reliability_goal(Sil::kSil1, sim::Time::zero()),
               std::invalid_argument);
}

}  // namespace
}  // namespace coeff::fault
