#include "sim/stats.hpp"

#include <gtest/gtest.h>

namespace coeff::sim {
namespace {

TEST(LatencyStatsTest, EmptyIsZero) {
  LatencyStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean_ms(), 0.0);
}

TEST(LatencyStatsTest, AccumulatesMilliseconds) {
  LatencyStats s;
  s.add(millis(2));
  s.add(millis(4));
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean_ms(), 3.0);
}

}  // namespace
}  // namespace coeff::sim
