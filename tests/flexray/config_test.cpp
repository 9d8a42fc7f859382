#include "flexray/config.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace coeff::flexray {
namespace {

TEST(ConfigTest, DefaultsValidate) {
  ClusterConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigTest, DerivedDurations) {
  ClusterConfig cfg;  // 5000 MT x 1 us
  EXPECT_EQ(cfg.cycle_duration(), sim::millis(5));
  EXPECT_EQ(cfg.static_slot_duration(), sim::micros(40));
  EXPECT_EQ(cfg.static_segment_duration(), sim::micros(40 * 80));
  EXPECT_EQ(cfg.minislot_duration(), sim::micros(8));
  EXPECT_EQ(cfg.dynamic_segment_duration(), sim::micros(8 * 50));
}

TEST(ConfigTest, NetworkIdleTimeIsRemainder) {
  ClusterConfig cfg;
  EXPECT_EQ(cfg.network_idle_time(),
            cfg.cycle_duration() - cfg.static_segment_duration() -
                cfg.dynamic_segment_duration());
  EXPECT_GE(cfg.network_idle_time(), sim::Time::zero());
}

TEST(ConfigTest, SegmentsExceedingCycleRejected) {
  ClusterConfig cfg;
  cfg.g_number_of_static_slots = 200;  // 200 * 40 = 8000 MT > 5000 MT
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigTest, NonPositiveParametersRejected) {
  for (auto mutate : std::vector<void (*)(ClusterConfig&)>{
           [](ClusterConfig& c) { c.gd_macrotick = sim::Time::zero(); },
           [](ClusterConfig& c) { c.g_macro_per_cycle = units::Macroticks{0}; },
           [](ClusterConfig& c) { c.g_number_of_static_slots = 0; },
           [](ClusterConfig& c) { c.gd_static_slot = units::Macroticks{-1}; },
           [](ClusterConfig& c) { c.gd_minislot = units::Macroticks{0}; },
           [](ClusterConfig& c) { c.bus_bit_rate = 0; },
           [](ClusterConfig& c) { c.num_nodes = 0; },
       }) {
    ClusterConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
}

TEST(ConfigTest, ActionPointOffsetMustFitMinislot) {
  ClusterConfig cfg;
  cfg.gd_minislot_action_point_offset = cfg.gd_minislot;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigTest, LatestTxDefaultsToWholeSegment) {
  ClusterConfig cfg;
  cfg.p_latest_tx = units::MinislotId{0};
  EXPECT_EQ(cfg.latest_tx_minislot(),
            units::MinislotId{cfg.g_number_of_minislots});
  cfg.p_latest_tx = units::MinislotId{10};
  EXPECT_EQ(cfg.latest_tx_minislot(), units::MinislotId{10});
}

TEST(ConfigTest, LatestTxBeyondSegmentRejected) {
  ClusterConfig cfg;
  cfg.p_latest_tx = units::MinislotId{cfg.g_number_of_minislots + 1};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(ConfigTest, TransmissionTimeRoundsUp) {
  ClusterConfig cfg;
  cfg.bus_bit_rate = 10'000'000;  // 10 Mb/s -> 100 ns per bit
  EXPECT_EQ(cfg.transmission_time(1), sim::nanos(100));
  EXPECT_EQ(cfg.transmission_time(10), sim::micros(1));
  EXPECT_EQ(cfg.transmission_time(0), sim::Time::zero());
}

TEST(ConfigTest, StaticSlotCapacity) {
  ClusterConfig cfg;  // 40 us slot at 10 Mb/s
  EXPECT_EQ(cfg.static_slot_capacity_bits(), 400);
  cfg.bus_bit_rate = 50'000'000;
  EXPECT_EQ(cfg.static_slot_capacity_bits(), 2000);
}

TEST(ConfigTest, MinislotsForIncludesIdlePhase) {
  ClusterConfig cfg;
  cfg.bus_bit_rate = 10'000'000;  // minislot = 8 us = 80 bits
  // 80 bits -> 1 minislot + 1 idle phase = 2
  EXPECT_EQ(cfg.minislots_for(80), 2);
  // 81 bits -> 2 minislots + idle = 3
  EXPECT_EQ(cfg.minislots_for(81), 3);
}

TEST(ConfigTest, StaticSuiteUsesRemainingBandwidth) {
  const auto cfg80 = ClusterConfig::static_suite(80);
  EXPECT_EQ(cfg80.g_number_of_static_slots, 80);
  EXPECT_EQ(cfg80.g_number_of_minislots, (5000 - 80 * 40) / 8);  // 225
  const auto cfg120 = ClusterConfig::static_suite(120);
  EXPECT_EQ(cfg120.g_number_of_minislots, (5000 - 120 * 40) / 8);  // 25
  // More static slots leave less dynamic bandwidth (the paper's point
  // about 120-slot configurations).
  EXPECT_LT(cfg120.g_number_of_minislots, cfg80.g_number_of_minislots);
}

TEST(ConfigTest, StaticSuiteOverflowThrows) {
  EXPECT_THROW((void)ClusterConfig::static_suite(126), std::invalid_argument);
}

TEST(ConfigTest, DynamicSuiteMatchesPaperParameters) {
  for (std::int64_t m : {25, 50, 75, 100}) {
    const auto cfg = ClusterConfig::dynamic_suite(m);
    EXPECT_EQ(cfg.g_number_of_minislots, m);
    EXPECT_EQ(cfg.g_number_of_static_slots, 80);
    EXPECT_EQ(cfg.gd_minislot, units::Macroticks{8});
    EXPECT_NO_THROW(cfg.validate());
  }
}

TEST(ConfigTest, AppSuiteHasOneMillisecondCycle) {
  const auto cfg = ClusterConfig::app_suite();
  EXPECT_EQ(cfg.cycle_duration(), sim::millis(1));
  EXPECT_EQ(cfg.static_segment_duration(), sim::micros(750));
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigTest, DescribeMentionsKeyNumbers) {
  const std::string desc = describe(ClusterConfig{});
  EXPECT_NE(desc.find("5.000ms"), std::string::npos);
  EXPECT_NE(desc.find("nodes=10"), std::string::npos);
}

TEST(ConfigTest, ChannelNames) {
  EXPECT_STREQ(to_string(ChannelId::kA), "A");
  EXPECT_STREQ(to_string(ChannelId::kB), "B");
}

// --- Where cycles, static slots and minislots start -----------------------

using units::CycleIndex;
using units::MinislotId;
using units::SlotId;

TEST(TimingTest, CycleStartInvertsIndex) {
  const ClusterConfig cfg;  // 5 ms cycles
  for (std::int64_t c : {0, 1, 7, 1000}) {
    const sim::Time start = cfg.cycle_start(CycleIndex{c});
    EXPECT_EQ(start / cfg.cycle_duration(), c);
    EXPECT_EQ(start % cfg.cycle_duration(), sim::Time::zero());
  }
}

TEST(TimingTest, StaticSlotStart) {
  const ClusterConfig cfg;
  EXPECT_EQ(cfg.static_slot_start(CycleIndex{0}, SlotId{1}), sim::Time::zero());
  EXPECT_EQ(cfg.static_slot_start(CycleIndex{0}, SlotId{2}), sim::micros(40));
  EXPECT_EQ(cfg.static_slot_start(CycleIndex{1}, SlotId{1}), sim::millis(5));
  EXPECT_EQ(cfg.static_slot_start(CycleIndex{2}, SlotId{80}),
            sim::millis(10) + sim::micros(79 * 40));
}

TEST(TimingTest, SlotOutOfRangeThrows) {
  const ClusterConfig cfg;
  EXPECT_THROW((void)cfg.static_slot_start(CycleIndex{0}, SlotId{0}),
               std::invalid_argument);
  EXPECT_THROW((void)cfg.static_slot_start(CycleIndex{0}, SlotId{81}),
               std::invalid_argument);
}

TEST(TimingTest, MinislotStart) {
  const ClusterConfig cfg;
  EXPECT_EQ(cfg.minislot_start(CycleIndex{0}, MinislotId{0}),
            sim::micros(3200));
  EXPECT_EQ(cfg.minislot_start(CycleIndex{0}, MinislotId{1}),
            sim::micros(3208));
  EXPECT_EQ(cfg.minislot_start(CycleIndex{1}, MinislotId{0}),
            sim::millis(5) + sim::micros(3200));
}

TEST(TimingTest, MinislotOutOfRangeThrows) {
  const ClusterConfig cfg;
  EXPECT_THROW((void)cfg.minislot_start(CycleIndex{0}, MinislotId{-1}),
               std::invalid_argument);
  EXPECT_THROW((void)cfg.minislot_start(CycleIndex{0}, MinislotId{50}),
               std::invalid_argument);
}

}  // namespace
}  // namespace coeff::flexray
