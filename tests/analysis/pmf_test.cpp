// Numeric edge cases of the convolution core (DESIGN.md §14): the
// degenerate zero-BER channel, p -> 1 saturation, truncation /
// renormalization error bounds, and quantization-step invariance of the
// upper-bound guarantee.
#include "analysis/pmf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "fault/fault_model.hpp"
#include "sim/random.hpp"

namespace coeff::analysis {
namespace {

constexpr double kTol = 1e-12;

Pmf bernoulli(double p, sim::Time work, sim::Time quantum,
              std::size_t bins) {
  Pmf pmf(quantum, bins);
  pmf.add_mass(sim::Time::zero(), 1.0 - p);
  pmf.add_mass(work, p);
  return pmf;
}

TEST(PmfEdge, ZeroBerChannelIsDegenerateAtZero) {
  fault::FaultModelConfig config;
  config.kind = fault::FaultModelKind::kIid;
  config.ber = 0.0;
  fault::AnalyticFailure af(config);
  EXPECT_EQ(af.attempt(1000), 0.0);
  EXPECT_EQ(af.consecutive_failures(1000, 4), 0.0);
  EXPECT_EQ(af.independent_failures(1000, 4), 0.0);

  // The interference convolution collapses to a point mass at zero.
  Pmf acc(sim::micros(50), 64);
  acc.add_mass(sim::Time::zero(), 1.0);
  for (int i = 0; i < 10; ++i) {
    acc = acc.convolve(
        bernoulli(af.attempt(1000), sim::micros(50), sim::micros(50), 64));
  }
  EXPECT_NEAR(acc.total_mass(), 1.0, kTol);
  EXPECT_NEAR(acc.tail_above(sim::Time::zero()), 0.0, kTol);
  EXPECT_EQ(acc.quantile(0.999), sim::Time::zero());
}

TEST(PmfEdge, SaturatedChannelPushesAllMassToFailure) {
  // A frame so large at so high a BER that every attempt fails.
  fault::FaultModelConfig config;
  config.kind = fault::FaultModelKind::kIid;
  config.ber = 0.5;
  fault::AnalyticFailure af(config);
  const double p = af.attempt(1 << 20);
  EXPECT_GT(p, 1.0 - 1e-12);
  EXPECT_NEAR(af.consecutive_failures(1 << 20, 3), 1.0, 1e-9);

  // Response construction mirror: no attempt ever succeeds, so the
  // whole unit mass ends in the overflow ("never lands") bucket and the
  // deadline-miss tail saturates at 1 for every deadline.
  Pmf response(sim::micros(50), 64);
  double f_prev = 1.0;
  for (int i = 0; i < 3; ++i) {
    const double f_next = af.consecutive_failures(1 << 20, i + 1);
    response.add_mass(sim::millis(1) * (i + 1),
                      std::max(0.0, f_prev - f_next));
    f_prev = f_next;
  }
  response.add_overflow(f_prev);
  EXPECT_NEAR(response.total_mass(), 1.0, kTol);
  EXPECT_NEAR(response.tail_above(sim::seconds(3600)), 1.0, 1e-9);
  EXPECT_EQ(response.quantile(0.999), sim::Time::max());
}

TEST(PmfEdge, TruncationMovesMassToOverflowNeverDropsIt) {
  // 4 bins of 50us cover delays up to 150us; everything later must be
  // absorbed by the overflow bucket, not silently dropped.
  Pmf tiny(sim::micros(50), 4);
  tiny.add_mass(sim::micros(100), 0.25);
  tiny.add_mass(sim::micros(150), 0.25);
  tiny.add_mass(sim::micros(200), 0.25);  // beyond the grid
  tiny.add_mass(sim::seconds(10), 0.25);  // far beyond the grid
  EXPECT_NEAR(tiny.total_mass(), 1.0, kTol);
  EXPECT_NEAR(tiny.overflow(), 0.5, kTol);
  // The overflow bucket counts toward every tail: the bound stays an
  // upper bound no matter how coarse the grid.
  EXPECT_NEAR(tiny.tail_above(sim::micros(150)), 0.5, kTol);
  EXPECT_NEAR(tiny.tail_above(sim::micros(100)), 0.75, kTol);
  EXPECT_NEAR(tiny.tail_above(sim::micros(50)), 1.0, kTol);
}

TEST(PmfEdge, RepeatedConvolutionConservesMassWithinFloatTolerance) {
  Pmf acc(sim::micros(50), 32);  // deliberately narrow: forces overflow
  acc.add_mass(sim::Time::zero(), 1.0);
  for (int i = 0; i < 200; ++i) {
    acc = acc.convolve(
        bernoulli(0.3, sim::micros(150), sim::micros(50), 32));
  }
  // 200 convolutions drift the total by at most ~200 ulps-scale error.
  EXPECT_NEAR(acc.total_mass(), 1.0, 1e-9);
  EXPECT_GT(acc.overflow(), 0.9);  // mean 200*45us blew past the grid

  const double factor = acc.normalize();
  EXPECT_NEAR(acc.total_mass(), 1.0, kTol);
  EXPECT_NEAR(factor, 1.0, 1e-9);
}

TEST(PmfEdge, CoarserQuantumOnlyRaisesTheTailBound) {
  // Quantization rounds up, so refining the step can only tighten (never
  // invalidate) a deadline-miss bound: tail_coarse >= tail_fine >= exact.
  const sim::Time deadline = sim::micros(180);
  const auto build = [](sim::Time quantum) {
    Pmf pmf(quantum, 4096);
    pmf.add_mass(sim::micros(33), 0.5);    // lands before D either way
    pmf.add_mass(sim::micros(170), 0.3);   // rounds past D only at 50us
    pmf.add_mass(sim::micros(400), 0.2);   // past D either way
    return pmf;
  };
  const double coarse = build(sim::micros(50)).tail_above(deadline);
  const double fine = build(sim::micros(10)).tail_above(deadline);
  const double exact = 0.2;
  EXPECT_GE(coarse, fine - kTol);
  EXPECT_GE(fine, exact - kTol);
  EXPECT_NEAR(coarse, 0.5, kTol);  // 170 -> bin 200 > 180
  EXPECT_NEAR(fine, 0.2, kTol);    // 170 -> bin 170 <= 180
}

TEST(PmfEdge, QuantumInvarianceOfDegenerateAndSaturatedMasses) {
  // Grid-aligned point masses are step-invariant: the same distribution
  // quantized at 10us and 50us answers every grid-aligned query alike.
  for (const sim::Time q : {sim::micros(10), sim::micros(50)}) {
    Pmf pmf(q, 4096);
    pmf.add_mass(sim::Time::zero(), 0.25);
    pmf.add_mass(sim::micros(100), 0.5);
    pmf.add_mass(sim::micros(600), 0.25);
    EXPECT_NEAR(pmf.tail_above(sim::micros(100)), 0.25, kTol);
    EXPECT_NEAR(pmf.tail_above(sim::Time::zero()), 0.75, kTol);
    EXPECT_EQ(pmf.quantile(0.75), sim::micros(100));
  }
}

TEST(PmfEdge, ConvolveAndAccumulateRejectQuantumMismatch) {
  Pmf a(sim::micros(50), 8);
  Pmf b(sim::micros(10), 8);
  a.add_mass(sim::Time::zero(), 1.0);
  b.add_mass(sim::Time::zero(), 1.0);
  EXPECT_THROW((void)a.convolve(b), std::invalid_argument);
  EXPECT_THROW(a.accumulate(b, 0.5), std::invalid_argument);
  EXPECT_THROW(a.accumulate_shifted(b, sim::Time::zero(), 0.5),
               std::invalid_argument);
}

// --- The kernels against dense references, bit for bit -----------------
//
// convolve and accumulate_shifted visit only nonzero bins. These dense
// copies visit every bin, in the order the verifiers' outputs were first
// recorded with; the kernels must reproduce their bins and overflow to
// the last bit, not within a tolerance.

/// Bins and overflow a dense reference computed.
struct Dense {
  std::vector<double> bins;
  double overflow = 0.0;
};

/// Discrete convolution over every bin pair, (i ascending, j ascending).
Dense dense_convolve(const Pmf& a, const Pmf& b) {
  const std::vector<double>& x = a.bins();
  const std::vector<double>& y = b.bins();
  Dense out{std::vector<double>(std::max(x.size(), y.size()), 0.0)};
  const std::size_t n = out.bins.size();
  double in_a = 0.0;
  double in_b = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] == 0.0) continue;
    in_a += x[i];
    for (std::size_t j = 0; j < y.size(); ++j) {
      if (y[j] == 0.0) continue;
      const std::size_t k = i + j;
      if (k >= n) {
        out.overflow += x[i] * y[j];
      } else {
        out.bins[k] += x[i] * y[j];
      }
    }
  }
  for (const double m : y) in_b += m;
  out.overflow += a.overflow() * (in_b + b.overflow()) + b.overflow() * in_a;
  return out;
}

/// `into` plus weight * (other delayed by `shift` bins): the delayed copy
/// built as a whole grid of other's size first, then added bin by bin.
Dense dense_accumulate_shifted(const Pmf& into, const Pmf& other,
                               std::size_t shift, double weight) {
  const std::vector<double>& y = other.bins();
  std::vector<double> moved(y.size(), 0.0);
  double moved_overflow = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0) continue;
    if (i + shift >= moved.size()) {
      moved_overflow += y[i];
    } else {
      moved[i + shift] = y[i];
    }
  }
  moved_overflow += other.overflow();

  Dense out{into.bins(), into.overflow()};
  const std::size_t n = std::min(out.bins.size(), moved.size());
  for (std::size_t i = 0; i < n; ++i) out.bins[i] += weight * moved[i];
  for (std::size_t i = n; i < moved.size(); ++i) {
    out.overflow += weight * moved[i];
  }
  out.overflow += weight * moved_overflow;
  return out;
}

/// True when `got` holds exactly the bits of `want`.
bool same_bits(const Dense& want, const Pmf& got) {
  const double overflow = got.overflow();
  return want.bins.size() == got.bins().size() &&
         std::memcmp(want.bins.data(), got.bins().data(),
                     want.bins.size() * sizeof(double)) == 0 &&
         std::memcmp(&want.overflow, &overflow, sizeof overflow) == 0;
}

constexpr sim::Time kQuantum = sim::micros(50);

/// A seeded operand with `bins` bins: dense (each bin loaded with a
/// random probability), or two-point like the verifiers' Bernoulli work
/// terms (its second point may lie past the grid), with or without
/// overflow mass of its own.
Pmf random_operand(sim::Rng& rng, std::size_t bins, bool two_point,
                   bool with_overflow) {
  Pmf pmf(kQuantum, bins);
  if (two_point) {
    const double q = rng.uniform(0.0, 1.0);
    pmf.add_mass(sim::Time::zero(), 1.0 - q);
    const std::int64_t past = static_cast<std::int64_t>(bins) + 1;
    pmf.add_mass(kQuantum * rng.uniform_int(1, past), q);
  } else {
    const double density = rng.uniform(0.05, 1.0);
    for (std::size_t i = 0; i < bins; ++i) {
      if (rng.bernoulli(density)) {
        pmf.add_mass(kQuantum * static_cast<std::int64_t>(i), rng.uniform01());
      }
    }
  }
  if (with_overflow) pmf.add_overflow(rng.uniform01());
  return pmf;
}

TEST(PmfKernel, ConvolveMatchesTheDenseKernelBitForBit) {
  sim::Rng rng(22);
  int unequal[2] = {0, 0};  // left operand shorter, right operand shorter
  for (const bool a_two : {false, true}) {
    for (const bool b_two : {false, true}) {
      for (const bool a_over : {false, true}) {
        for (const bool b_over : {false, true}) {
          for (int rep = 0; rep < 40; ++rep) {
            const auto na = static_cast<std::size_t>(rng.uniform_int(1, 48));
            const auto nb = static_cast<std::size_t>(rng.uniform_int(1, 48));
            const Pmf a = random_operand(rng, na, a_two, a_over);
            const Pmf b = random_operand(rng, nb, b_two, b_over);
            ASSERT_TRUE(same_bits(dense_convolve(a, b), a.convolve(b)))
                << "bins " << na << " * " << nb << ", two-point " << a_two
                << "/" << b_two << ", overflow " << a_over << "/" << b_over;
            if (na != nb) ++unequal[na < nb ? 0 : 1];
          }
        }
      }
    }
  }
  EXPECT_GT(unequal[0], 100);
  EXPECT_GT(unequal[1], 100);
}

TEST(PmfKernel, AccumulateShiftedMatchesShiftThenAccumulateBitForBit) {
  sim::Rng rng(2022);
  int past_grid = 0;  // shifts that pushed loaded bins off the grid
  for (const bool into_over : {false, true}) {
    for (const bool other_two : {false, true}) {
      for (const bool other_over : {false, true}) {
        for (int rep = 0; rep < 60; ++rep) {
          const auto ni = static_cast<std::size_t>(rng.uniform_int(1, 48));
          const auto no = static_cast<std::size_t>(rng.uniform_int(1, 48));
          Pmf into = random_operand(rng, ni, /*two_point=*/false, into_over);
          const Pmf other = random_operand(rng, no, other_two, other_over);
          // A delay that rounds up onto `shift` bins, up to past the grid.
          const auto shift = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(no) + 2));
          const sim::Time early =
              sim::nanos(rng.uniform_int(0, kQuantum.ns() - 1));
          const sim::Time dt =
              shift == 0 ? sim::Time::zero()
                         : kQuantum * static_cast<std::int64_t>(shift) - early;
          const double weight = 1.0 - rng.uniform01();  // (0, 1]
          const Dense want =
              dense_accumulate_shifted(into, other, shift, weight);
          into.accumulate_shifted(other, dt, weight);
          ASSERT_TRUE(same_bits(want, into))
              << "bins " << ni << " += " << no << " shifted " << shift
              << ", weight " << weight;
          const auto& y = other.bins();
          const auto kept =
              static_cast<std::ptrdiff_t>(no - std::min(no, shift));
          if (std::any_of(y.begin() + kept, y.end(),
                          [](double m) { return m != 0.0; })) {
            ++past_grid;
          }
        }
      }
    }
  }
  EXPECT_GT(past_grid, 100);
}

// --- with_cycle_slips (DESIGN.md §15: geometric cycle-slip operator) ---

Pmf unit_at(sim::Time t, sim::Time quantum, std::size_t bins) {
  Pmf pmf(quantum, bins);
  pmf.add_mass(t, 1.0);
  return pmf;
}

TEST(CycleSlips, ZeroSlipProbabilityIsIdentityPlusNothing) {
  const Pmf first = unit_at(sim::micros(100), sim::micros(50), 64);
  const Pmf out = with_cycle_slips(first, 0.0, sim::millis(1), 8);
  EXPECT_NEAR(out.total_mass(), 1.0, kTol);
  EXPECT_NEAR(out.overflow(), 0.0, kTol);
  EXPECT_NEAR(out.tail_above(sim::micros(100)), 0.0, kTol);
  EXPECT_NEAR(out.tail_above(sim::micros(50)), 1.0, kTol);
  EXPECT_EQ(out.quantile(0.999), sim::micros(100));
}

TEST(CycleSlips, CertainSlipSendsAllMassToOverflow) {
  // p_slip = 1: no term of the geometric series ever lands, so the whole
  // unit mass must be conserved in the overflow bucket (certain miss),
  // never silently dropped.
  const Pmf first = unit_at(sim::micros(100), sim::micros(50), 64);
  const Pmf out = with_cycle_slips(first, 1.0, sim::millis(1), 16);
  EXPECT_NEAR(out.total_mass(), 1.0, kTol);
  EXPECT_NEAR(out.overflow(), 1.0, kTol);
  EXPECT_EQ(out.quantile(0.999), sim::Time::max());
}

TEST(CycleSlips, GeometricWeightsConserveMassAndMatchClosedForm) {
  const double p = 0.25;
  const sim::Time cycle = sim::millis(1);
  const Pmf first = unit_at(sim::micros(100), sim::micros(50), 4096);
  const Pmf out = with_cycle_slips(first, p, cycle, 32);
  EXPECT_NEAR(out.total_mass(), 1.0, 1e-9);
  // P(response > j cycles + first) = p^(j+1): the tail just above the
  // j-th landing point is exactly the not-yet-served geometric tail.
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(out.tail_above(cycle * j + sim::micros(100)),
                std::pow(p, j + 1), 1e-12)
        << "after slip " << j;
  }
}

TEST(CycleSlips, TruncationResidualLandsInOverflowAtTheSlipCap) {
  // max_slips = 2 keeps terms j=0..2; the residual p^3 must be overflow
  // so every deadline-miss tail stays an upper bound after truncation.
  const double p = 0.5;
  const Pmf first = unit_at(sim::micros(100), sim::micros(50), 4096);
  const Pmf out = with_cycle_slips(first, p, sim::millis(1), 2);
  EXPECT_NEAR(out.total_mass(), 1.0, kTol);
  EXPECT_NEAR(out.overflow(), 0.125, kTol);
  EXPECT_NEAR(out.tail_above(sim::seconds(1)), 0.125, kTol);
}

TEST(CycleSlips, GridExhaustionAtTheCutoffStillConserves) {
  // The delayed copies march off a deliberately tiny grid:
  // accumulate_shifted moves the late mass into overflow, and the
  // operator's own residual joins it — total mass stays 1 whatever the
  // cap.
  const Pmf first = unit_at(sim::micros(100), sim::micros(50), 8);
  const Pmf out = with_cycle_slips(first, 0.5, sim::millis(5), 64);
  EXPECT_NEAR(out.total_mass(), 1.0, 1e-9);
  EXPECT_NEAR(out.overflow(), 0.5, 1e-9);  // every slipped term overflows
  EXPECT_NEAR(out.tail_above(sim::micros(100)), 0.5, 1e-9);
}

TEST(CycleSlips, RejectsMalformedParameters) {
  const Pmf first = unit_at(sim::micros(100), sim::micros(50), 8);
  EXPECT_THROW((void)with_cycle_slips(first, -0.1, sim::millis(1), 4),
               std::invalid_argument);
  EXPECT_THROW((void)with_cycle_slips(first, 1.1, sim::millis(1), 4),
               std::invalid_argument);
  EXPECT_THROW((void)with_cycle_slips(first, std::nan(""), sim::millis(1), 4),
               std::invalid_argument);
  EXPECT_THROW((void)with_cycle_slips(first, 0.5, sim::millis(1), -1),
               std::invalid_argument);
  EXPECT_THROW((void)with_cycle_slips(first, 0.5, sim::millis(-1), 4),
               std::invalid_argument);
}

}  // namespace
}  // namespace coeff::analysis
