#include "sched/schedule_table.hpp"

#include <gtest/gtest.h>

#include "net/workloads.hpp"
#include <set>

#include "sim/random.hpp"

namespace coeff::sched {
namespace {

flexray::ClusterConfig config_5ms() {
  auto cfg = flexray::ClusterConfig::static_suite(80);
  cfg.bus_bit_rate = 50'000'000;
  return cfg;
}

flexray::ClusterConfig config_1ms() {
  auto cfg = flexray::ClusterConfig::app_suite();
  cfg.bus_bit_rate = 50'000'000;
  return cfg;
}

net::Message msg(int id, int node, int period_ms, int deadline_ms, int bits,
                 int offset_us = 0) {
  net::Message m;
  m.id = id;
  m.node = node;
  m.kind = net::MessageKind::kStatic;
  m.period = sim::millis(period_ms);
  m.deadline = sim::millis(deadline_ms);
  m.size_bits = bits;
  m.offset = sim::micros(offset_us);
  return m;
}

TEST(ScheduleTableTest, SingleMessagePlacedInFirstSlot) {
  const auto table = StaticScheduleTable::build(
      net::MessageSet({msg(1, 0, 5, 5, 400)}), config_5ms());
  ASSERT_EQ(table.assignments().size(), 1u);
  const auto& a = table.assignments()[0];
  EXPECT_EQ(a.slot, units::SlotId{1});
  EXPECT_EQ(a.repetition, 1);
  EXPECT_EQ(table.message_at(units::SlotId{1}, units::CycleIndex{0}), 1);
  EXPECT_EQ(table.message_at(units::SlotId{1}, units::CycleIndex{17}), 1);
}

TEST(ScheduleTableTest, PeriodMustBeCycleMultiple) {
  EXPECT_THROW((void)StaticScheduleTable::build(
                   net::MessageSet({msg(1, 0, 7, 5, 400)}), config_5ms()),
               std::invalid_argument);
}

TEST(ScheduleTableTest, PayloadMustFitSlot) {
  // 50 Mb/s x 40 us = 2000 bits.
  EXPECT_THROW((void)StaticScheduleTable::build(
                   net::MessageSet({msg(1, 0, 5, 5, 2001)}), config_5ms()),
               std::invalid_argument);
  EXPECT_NO_THROW((void)StaticScheduleTable::build(
      net::MessageSet({msg(1, 0, 5, 5, 2000)}), config_5ms()));
}

TEST(ScheduleTableTest, LatencyGreedySpreadsWhenSlotsAreFree) {
  // With 80 free slots the builder prefers the lower-latency placement
  // (distinct early slots) over packing one slot via multiplexing.
  const auto table = StaticScheduleTable::build(
      net::MessageSet({msg(1, 0, 10, 10, 400), msg(2, 1, 10, 10, 400)}),
      config_5ms());
  ASSERT_EQ(table.assignments().size(), 2u);
  EXPECT_EQ(table.slots_used(), 2);
  EXPECT_LT(table.assignments()[1].latency, sim::millis(1));
}

TEST(ScheduleTableTest, CycleMultiplexingSharesScarceSlots) {
  // One slot, four messages of repetition 4: all four must multiplex
  // into disjoint phases of the single slot.
  flexray::ClusterConfig cfg;
  cfg.g_macro_per_cycle = units::Macroticks{1000};
  cfg.g_number_of_static_slots = 1;
  cfg.gd_static_slot = units::Macroticks{40};
  cfg.g_number_of_minislots = 10;
  cfg.bus_bit_rate = 50'000'000;
  net::MessageSet set;
  for (int i = 1; i <= 4; ++i) set.add(msg(i, 0, 4, 4, 400));
  const auto table = StaticScheduleTable::build(set, cfg);
  ASSERT_EQ(table.assignments().size(), 4u);
  EXPECT_TRUE(table.unplaced().empty());
  EXPECT_EQ(table.slots_used(), 1);
  std::set<std::int64_t> phases;
  for (const auto& a : table.assignments()) {
    EXPECT_EQ(a.slot, units::SlotId{1});
    EXPECT_EQ(a.repetition, 4);
    phases.insert(a.base_cycle.value() % 4);
  }
  EXPECT_EQ(phases.size(), 4u);
}

TEST(ScheduleTableTest, NoSlotCycleCollisions_Property) {
  sim::Rng rng(5);
  net::SyntheticStaticOptions opt;
  opt.count = 150;
  opt.max_bits = 1600;
  const auto set = net::synthetic_static(opt, rng);
  const auto table = StaticScheduleTable::build(set, config_5ms());
  EXPECT_TRUE(table.unplaced().empty());
  // Exhaustively check one table period: at most one message per
  // (slot, cycle).  message_at returning the first matching occupant
  // must be the *only* matching occupant.
  const std::int64_t period = table.table_period_cycles();
  for (std::int64_t slot = 1; slot <= 80; ++slot) {
    for (std::int64_t cycle = 0; cycle < std::min<std::int64_t>(period, 64);
         ++cycle) {
      int owners = 0;
      for (const auto& a : table.assignments()) {
        if (a.slot == units::SlotId{slot} && cycle >= a.base_cycle.value() &&
            (cycle - a.base_cycle.value()) % a.repetition == 0) {
          ++owners;
        }
      }
      EXPECT_LE(owners, 1) << "slot " << slot << " cycle " << cycle;
    }
  }
}

TEST(ScheduleTableTest, EveryPlacedMessageTransmitsOncePerPeriod) {
  sim::Rng rng(6);
  net::SyntheticStaticOptions opt;
  opt.count = 40;
  const auto set = net::synthetic_static(opt, rng);
  const auto table = StaticScheduleTable::build(set, config_5ms());
  for (const auto& a : table.assignments()) {
    const net::Message* m = set.find(a.message_id);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(a.repetition, m->period / sim::millis(5));
    // The slot is owned at exactly the assigned phase.
    EXPECT_EQ(table.message_at(a.slot, a.base_cycle), a.message_id);
    EXPECT_EQ(table.message_at(a.slot, a.base_cycle + a.repetition),
              a.message_id);
  }
}

TEST(ScheduleTableTest, LatencyIsReleaseToSlotEnd) {
  // Offset 100 us, slot 1 ends at 40 us into each cycle -> the first
  // cycle whose slot starts at/after release is cycle 1: latency
  // 5000 + 40 - 100 = 4940 us. A later slot may beat it: slot k starts
  // at (k-1)*40 us; the first slot past 100 us is slot 4 (120 us), with
  // latency 120 + 40 - 100 = 60 us.
  const auto table = StaticScheduleTable::build(
      net::MessageSet({msg(1, 0, 5, 5, 400, 100)}), config_5ms());
  ASSERT_EQ(table.assignments().size(), 1u);
  EXPECT_EQ(table.assignments()[0].slot, units::SlotId{4});
  EXPECT_EQ(table.assignments()[0].latency, sim::micros(60));
}

TEST(ScheduleTableTest, DeadlineRiskWhenTdmaCannotMeetDeadline) {
  // Deadline 1 ms with a 5 ms cycle and release near the end of the
  // static segment: no placement can meet it.
  const auto table = StaticScheduleTable::build(
      net::MessageSet({msg(1, 0, 5, 1, 400, 4000)}), config_5ms());
  EXPECT_EQ(table.deadline_risk().size(), 1u);
  EXPECT_TRUE(table.unplaced().empty());
  ASSERT_EQ(table.assignments().size(), 1u);
  EXPECT_GT(table.assignments()[0].latency, sim::millis(1));
}

TEST(ScheduleTableTest, BbwFitsAppSuite) {
  const auto table =
      StaticScheduleTable::build(net::brake_by_wire(), config_1ms());
  EXPECT_TRUE(table.unplaced().empty());
  EXPECT_EQ(table.assignments().size(), 20u);
  EXPECT_LE(table.slots_used(), 15);
}

TEST(ScheduleTableTest, AccFitsAppSuite) {
  const auto table =
      StaticScheduleTable::build(net::adaptive_cruise(), config_1ms());
  EXPECT_TRUE(table.unplaced().empty());
  EXPECT_EQ(table.assignments().size(), 20u);
  // ACC's long periods (16/24/32 cycles) leave every placement with
  // latency far below the deadline.
  EXPECT_TRUE(table.deadline_risk().empty());
}

TEST(ScheduleTableTest, OverloadReportsUnplaced) {
  // 4 messages with repetition 1 into a 2-slot segment.
  flexray::ClusterConfig cfg;
  cfg.g_macro_per_cycle = units::Macroticks{1000};
  cfg.g_number_of_static_slots = 2;
  cfg.gd_static_slot = units::Macroticks{40};
  cfg.g_number_of_minislots = 10;
  cfg.bus_bit_rate = 50'000'000;
  net::MessageSet set;
  for (int i = 1; i <= 4; ++i) set.add(msg(i, 0, 1, 1, 400));
  const auto table = StaticScheduleTable::build(set, cfg);
  EXPECT_EQ(table.assignments().size(), 2u);
  EXPECT_EQ(table.unplaced().size(), 2u);
}

TEST(ScheduleTableTest, RankOptionControlsPlacementOrder) {
  // With default order both messages compete by deadline; ranking the
  // second one first hands it the better slot.
  net::MessageSet set({msg(1, 0, 5, 5, 400), msg(2, 1, 5, 5, 400)});
  TableBuildOptions options;
  options.rank = [](const net::Message& m) { return m.id == 2 ? 0 : 1; };
  const auto table = StaticScheduleTable::build(set, config_5ms(), options);
  EXPECT_EQ(table.assignment_of(2)->slot, units::SlotId{1});
  EXPECT_EQ(table.assignment_of(1)->slot, units::SlotId{2});
}

TEST(ScheduleTableTest, AssignmentLookupByMessage) {
  const auto table = StaticScheduleTable::build(
      net::MessageSet({msg(7, 0, 5, 5, 400)}), config_5ms());
  ASSERT_NE(table.assignment_of(7), nullptr);
  EXPECT_EQ(table.assignment_of(7)->message_id, 7);
  EXPECT_EQ(table.assignment_of(8), nullptr);
}

TEST(ScheduleTableTest, DynamicMessagesIgnored) {
  net::Message dyn = msg(1, 0, 5, 5, 400);
  dyn.kind = net::MessageKind::kDynamic;
  dyn.frame_id = 90;
  const auto table =
      StaticScheduleTable::build(net::MessageSet({dyn}), config_5ms());
  EXPECT_TRUE(table.assignments().empty());
}

}  // namespace
}  // namespace coeff::sched
