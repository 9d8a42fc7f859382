#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace coeff::sim {
namespace {

TEST(RandomTest, SameSeedSameSequence) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RandomTest, Uniform01StaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.uniform01();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(RandomTest, Uniform01MeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RandomTest, NextBelowRespectsBound) {
  Rng rng(3);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(RandomTest, NextBelowOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(RandomTest, UniformIntCoversClosedRange) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RandomTest, UniformIntDegenerateRange) {
  Rng rng(17);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(RandomTest, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(RandomTest, BernoulliFrequencyMatchesP) {
  Rng rng(23);
  const double p = 0.3;
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(p)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01);
}

TEST(RandomTest, ExponentialMeanMatchesRate) {
  Rng rng(29);
  const double rate = 4.0;
  double sum = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(rate);
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.01);
}

TEST(RandomTest, ExponentialIsPositiveAndFinite) {
  Rng rng(31);
  for (int i = 0; i < 10'000; ++i) {
    const double x = rng.exponential(1.0);
    ASSERT_GE(x, 0.0);
    ASSERT_TRUE(std::isfinite(x));
  }
}

TEST(RandomTest, SplitStreamsAreIndependentOfParentUse) {
  // The child stream derived at the same parent state must be identical
  // regardless of what the parent does afterwards.
  Rng parent1(99);
  Rng child1 = parent1.split();
  Rng parent2(99);
  Rng child2 = parent2.split();
  for (int i = 0; i < 100; ++i) parent1.next_u64();  // diverge parents
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(child1.next_u64(), child2.next_u64());
  }
}

TEST(RandomTest, SplitChildDiffersFromParent) {
  Rng parent(7);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RandomTest, UniformRangeScales) {
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(10.0, 20.0);
    ASSERT_GE(x, 10.0);
    ASSERT_LT(x, 20.0);
  }
}

}  // namespace
}  // namespace coeff::sim
