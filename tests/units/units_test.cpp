#include "units/units.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <unordered_map>

#include "units/convert.hpp"

namespace coeff::units {
namespace {

// --- Quantity arithmetic -------------------------------------------------

TEST(QuantityTest, AdditiveAndScalingArithmetic) {
  const Macroticks a{40};
  const Macroticks b{8};
  EXPECT_EQ(a + b, Macroticks{48});
  EXPECT_EQ(a - b, Macroticks{32});
  EXPECT_EQ(a * 3, Macroticks{120});
  EXPECT_EQ(3 * a, Macroticks{120});
  EXPECT_EQ(a / 4, Macroticks{10});
  EXPECT_EQ(a / b, 5);  // dimensionless ratio
  EXPECT_EQ(a % b, Macroticks::zero());
  EXPECT_EQ(Macroticks{41} % b, Macroticks{1});
  Macroticks c = a;
  c += b;
  c -= Macroticks{3};
  EXPECT_EQ(c, Macroticks{45});
  EXPECT_EQ(-b, Macroticks{-8});
}

TEST(QuantityTest, TruncatingDivisionIsTowardZero) {
  EXPECT_EQ(Macroticks{7} / 2, Macroticks{3});
  EXPECT_EQ(Macroticks{7} / Macroticks{2}, 3);
}

// Hyperperiod-scale sums must fail loudly, not wrap. A 64-cycle
// hyperperiod of 5 ms cycles is ~3.2e8 ns; the overflow horizon is only
// reachable through a bug, and when it is we want the throw.
TEST(QuantityTest, OverflowThrowsInsteadOfWrapping) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const Macroticks huge{kMax - 1};
  EXPECT_THROW((void)(huge + Macroticks{2}), std::overflow_error);
  EXPECT_THROW((void)(Macroticks{kMax} * 2), std::overflow_error);
  EXPECT_THROW((void)(Macroticks{-2} - Macroticks{kMax}), std::overflow_error);
  EXPECT_THROW((void)-Macroticks{std::numeric_limits<std::int64_t>::min()},
               std::overflow_error);
  Macroticks acc{kMax - 10};
  EXPECT_THROW(acc += Macroticks{11}, std::overflow_error);
  // No silent wrap: the accumulator is untouched after the throw... or at
  // least still equal to a legal value, never a wrapped negative one.
  EXPECT_GE(acc, Macroticks::zero());
}

TEST(OrdinalTest, SteppingAndDifferences) {
  CycleIndex c{5};
  ++c;
  EXPECT_EQ(c, CycleIndex{6});
  EXPECT_EQ(c + 4, CycleIndex{10});
  EXPECT_EQ(c - 2, CycleIndex{4});
  EXPECT_EQ(CycleIndex{10} - CycleIndex{6}, 4);
  EXPECT_LT(CycleIndex{3}, CycleIndex{4});
  EXPECT_THROW(
      (void)(CycleIndex{std::numeric_limits<std::int64_t>::max()} + 1),
      std::overflow_error);
}

TEST(IdentifierTest, ComparesAndHashesButHasNoArithmetic) {
  EXPECT_EQ(FrameId{17}, FrameId{17});
  EXPECT_NE(NodeId{1}, NodeId{2});
  EXPECT_LT(FrameId{3}, FrameId{4});
  std::unordered_map<FrameId, int> by_frame;
  by_frame[FrameId{100}] = 7;
  EXPECT_EQ(by_frame.at(FrameId{100}), 7);
  std::unordered_map<SlotId, int> by_slot;  // ordinals hash too
  by_slot[SlotId{3}] = 9;
  EXPECT_EQ(by_slot.at(SlotId{3}), 9);
}

// --- SlotId -> FrameId crossing ------------------------------------------

TEST(FrameIdTest, SlotCrossingRoundTripsInsideElevenBits) {
  for (std::int64_t s : {1, 100, 2047}) {
    EXPECT_EQ(to_frame_id(SlotId{s}).value(), s);
  }
  EXPECT_THROW((void)to_frame_id(SlotId{2048}), std::overflow_error);
  EXPECT_THROW((void)to_frame_id(SlotId{-1}), std::overflow_error);
}

// --- The whole-microsecond grid -----------------------------------------

TEST(ConvertTest, MicrosecondsRoundTrip) {
  EXPECT_TRUE(is_whole_microseconds(sim::micros(40)));
  EXPECT_FALSE(is_whole_microseconds(sim::nanos(1500)));
}

// --- Macroticks on a non-integer us/MT grid ------------------------------
// The paper's clusters use a 1 us macrotick, but FlexRay permits e.g.
// 1.375 us. All macrotick conversions must stay exact on any
// whole-nanosecond grid, and the exact form must reject off-grid times.

TEST(ConvertTest, MacrotickConversionsOnFractionalMicrosecondGrid) {
  const sim::Time mt = sim::nanos(1375);  // 1.375 us per macrotick
  EXPECT_EQ(to_time(Macroticks{8}, mt), sim::nanos(11'000));
  EXPECT_EQ(to_macroticks(sim::nanos(11'000), mt), Macroticks{8});
  EXPECT_FALSE(is_on_macrotick_grid(sim::micros(11), sim::nanos(1500)));
  EXPECT_THROW((void)to_macroticks(sim::nanos(11'001), mt),
               std::invalid_argument);
  // Rounding forms state their direction in the name.
  EXPECT_EQ(ceil_macroticks(sim::nanos(11'001), mt), Macroticks{9});
  EXPECT_EQ(ceil_macroticks(sim::nanos(11'000), mt), Macroticks{8});
}

TEST(ConvertTest, MacrotickOverflowAtHyperperiodScaleThrows) {
  // ~9.2e18 ns horizon / 1375 ns per MT: a count above ~6.7e15 MT can
  // no longer be expressed as sim::Time. This must throw, not wrap.
  const sim::Time mt = sim::nanos(1375);
  const Macroticks too_many{std::numeric_limits<std::int64_t>::max() / 1000};
  EXPECT_THROW((void)to_time(too_many, mt), std::overflow_error);
}

// --- Compile-time surface -------------------------------------------------
// The zero-overhead static_asserts live in units.hpp; exercise the
// constexpr surface here so a regression to runtime-only evaluation
// (e.g. a non-constexpr checked_add) breaks the build via these tests.

static_assert(Macroticks{40} + Macroticks{8} == Macroticks{48});
static_assert(to_time(Macroticks{3}, sim::nanos(1375)) == sim::Time{4'125});
static_assert(to_frame_id(SlotId{17}).value() == 17);
static_assert(CycleIndex{7} - CycleIndex{2} == 5);

}  // namespace
}  // namespace coeff::units
