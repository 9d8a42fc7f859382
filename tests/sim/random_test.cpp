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

// --- Philox4x32-10 ------------------------------------------------------

// Known-answer vectors from the Random123 reference distribution
// (kat_vectors, "philox 4x32 10"). Counter words map little-end first:
// c0 = (ctr1 << 32) | ctr0, c1 = (ctr3 << 32) | ctr2, key likewise.
TEST(PhiloxTest, MatchesReferenceKnownAnswers) {
  {
    const Philox4x32 philox(0);
    const auto b = philox.block(0, 0);
    EXPECT_EQ(b[0], 0x6627e8d5U);
    EXPECT_EQ(b[1], 0xe169c58dU);
    EXPECT_EQ(b[2], 0xbc57ac4cU);
    EXPECT_EQ(b[3], 0x9b00dbd8U);
  }
  {
    const Philox4x32 philox(0xffffffffffffffffULL);
    const auto b =
        philox.block(0xffffffffffffffffULL, 0xffffffffffffffffULL);
    EXPECT_EQ(b[0], 0x408f276dU);
    EXPECT_EQ(b[1], 0x41c83b0eU);
    EXPECT_EQ(b[2], 0xa20bc7c6U);
    EXPECT_EQ(b[3], 0x6d5451fdU);
  }
  {
    const Philox4x32 philox(0x299f31d0a4093822ULL);
    const auto b =
        philox.block(0x85a308d3243f6a88ULL, 0x0370734413198a2eULL);
    EXPECT_EQ(b[0], 0xd16cfe09U);
    EXPECT_EQ(b[1], 0x94fdccebU);
    EXPECT_EQ(b[2], 0x5001e420U);
    EXPECT_EQ(b[3], 0x24126ea1U);
  }
}

// The batched verdicts' whole premise: a verdict is a pure function of
// (key, counter) — same inputs, same output, in any evaluation order.
TEST(PhiloxTest, CounterDrawsAreOrderIndependent) {
  const Philox4x32 philox(42);
  std::array<std::uint64_t, 8> forward{};
  for (std::uint64_t i = 0; i < forward.size(); ++i) {
    forward[i] = philox.next_u64(i, 7);
  }
  for (std::uint64_t i = forward.size(); i-- > 0;) {
    EXPECT_EQ(philox.next_u64(i, 7), forward[i]);
  }
  // Distinct counters and keys decorrelate.
  EXPECT_NE(philox.next_u64(0, 7), philox.next_u64(1, 7));
  EXPECT_NE(philox.next_u64(0, 7), philox.next_u64(0, 8));
  EXPECT_NE(philox.next_u64(0, 7), Philox4x32(43).next_u64(0, 7));
}

TEST(PhiloxTest, Uniform01StaysInUnitIntervalAndIsUnbiased) {
  const Philox4x32 philox(9);
  double sum = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = philox.uniform01(static_cast<std::uint64_t>(i), 0);
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
  EXPECT_FALSE(philox.bernoulli(0.0, 1, 2));
  EXPECT_TRUE(philox.bernoulli(1.0, 1, 2));
}

}  // namespace
}  // namespace coeff::sim
