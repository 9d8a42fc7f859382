#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace coeff::sim {
namespace {

TEST(StreamingStatsTest, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StreamingStatsTest, SingleSample) {
  StreamingStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StreamingStatsTest, KnownMoments) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook sample
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingStatsTest, MergeMatchesSequential) {
  StreamingStats a, b, whole;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10;
    (i % 2 == 0 ? a : b).add(x);
    whole.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(StreamingStatsTest, MergeWithEmptySides) {
  StreamingStats a, empty;
  a.add(1.0);
  a.add(3.0);
  StreamingStats c = a;
  c.merge(empty);
  EXPECT_EQ(c.count(), 2u);
  StreamingStats d = empty;
  d.merge(a);
  EXPECT_EQ(d.count(), 2u);
  EXPECT_DOUBLE_EQ(d.mean(), 2.0);
}

TEST(LatencyStatsTest, AccumulatesMilliseconds) {
  LatencyStats s;
  s.add(millis(2));
  s.add(millis(4));
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean_ms(), 3.0);
  EXPECT_DOUBLE_EQ(s.max_ms(), 4.0);
}

}  // namespace
}  // namespace coeff::sim
