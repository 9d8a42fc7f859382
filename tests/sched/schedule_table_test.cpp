#include "sched/schedule_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <set>
#include <vector>

#include "net/workloads.hpp"
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

TEST(ScheduleTableTest, LatencyEqualToDeadlineIsNoRisk) {
  // Released at 4040 us, past the static segment: the least latency is
  // slot 1 of the next cycle, 5000 + 40 - 4040 = 1000 us, which meets
  // the 1 ms deadline exactly.
  const auto table = StaticScheduleTable::build(
      net::MessageSet({msg(1, 0, 5, 1, 400, 4040)}), config_5ms());
  ASSERT_EQ(table.assignments().size(), 1u);
  EXPECT_EQ(table.assignments()[0].latency, sim::millis(1));
  EXPECT_TRUE(table.deadline_risk().empty());
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

/// StaticScheduleTable::build with no early stop: every slot of every
/// message is scanned, and the first least-latency candidate is kept.
struct FullScan {
  std::vector<SlotAssignment> placed;
  std::vector<int> unplaced;
  std::vector<int> risk;
};

FullScan full_scan_build(const net::MessageSet& statics,
                         const flexray::ClusterConfig& cfg, bool exclusive) {
  const sim::Time cycle = cfg.cycle_duration();
  const sim::Time slot_dur = cfg.static_slot_duration();
  std::vector<const net::Message*> order;
  for (const auto& m : statics.messages()) order.push_back(&m);
  std::sort(order.begin(), order.end(),
            [](const net::Message* a, const net::Message* b) {
              if (a->deadline != b->deadline) return a->deadline < b->deadline;
              if (a->period != b->period) return a->period < b->period;
              return a->id < b->id;
            });
  std::vector<std::vector<SlotAssignment>> occupants(
      static_cast<std::size_t>(cfg.g_number_of_static_slots));
  FullScan out;
  for (const net::Message* m : order) {
    const std::int64_t repetition = exclusive ? 1 : m->period / cycle;
    std::optional<SlotAssignment> best;
    for (std::int64_t s = 1; s <= cfg.g_number_of_static_slots; ++s) {
      const sim::Time slot_offset = slot_dur * (s - 1);
      std::int64_t base = 0;
      if (slot_offset < m->offset) {
        base = ((m->offset - slot_offset).ns() + cycle.ns() - 1) / cycle.ns();
      }
      const auto& here = occupants[static_cast<std::size_t>(s - 1)];
      for (std::int64_t b = base; b < base + repetition; ++b) {
        const bool clash = std::any_of(
            here.begin(), here.end(), [&](const SlotAssignment& o) {
              const std::int64_t g = std::gcd(repetition, o.repetition);
              return ((b - o.base_cycle.value()) % g + g) % g == 0;
            });
        if (clash) continue;
        SlotAssignment cand;
        cand.message_id = m->id;
        cand.slot = units::SlotId{s};
        cand.base_cycle = units::CycleIndex{b};
        cand.repetition = repetition;
        cand.latency = cycle * b + slot_offset + slot_dur - m->offset;
        if (!best || cand.latency < best->latency) best = cand;
        break;
      }
    }
    if (!best) {
      out.unplaced.push_back(m->id);
      continue;
    }
    if (best->latency > m->deadline) out.risk.push_back(m->id);
    out.placed.push_back(*best);
    occupants[static_cast<std::size_t>(best->slot.value() - 1)].push_back(
        *best);
  }
  return out;
}

/// The scan stops once no later slot can beat the best latency found;
/// that must never change a placement. Random sets on 4 to 125 slots:
/// few slots fill and multiplex, and a static segment as long as the
/// cycle puts every offset before some slot. Offsets of up to a period
/// make base cycles above 0 compete.
TEST(ScheduleTableTest, EarlyStopPlacesLikeAFullScan) {
  sim::Rng rng(20261020);
  const std::int64_t repetitions[] = {1, 2, 4, 5, 8, 10};
  const std::int64_t slot_counts[] = {4, 8, 16, 32, 64, 80, 125};
  for (int trial = 0; trial < 1000; ++trial) {
    const auto cfg = flexray::ClusterConfig::static_suite(
        slot_counts[rng.uniform_int(0, 6)]);
    std::vector<net::Message> messages;
    const std::int64_t count = rng.uniform_int(1, 60);
    for (int id = 1; id <= count; ++id) {
      net::Message m;
      m.id = id;
      m.node = static_cast<int>(rng.uniform_int(0, 9));
      m.kind = net::MessageKind::kStatic;
      m.period = cfg.cycle_duration() * repetitions[rng.uniform_int(0, 5)];
      m.deadline = sim::micros(rng.uniform_int(1, m.period.ns() / 1000));
      m.offset = sim::micros(rng.uniform_int(0, m.period.ns() / 1000 - 1));
      m.size_bits = rng.uniform_int(16, cfg.static_slot_capacity_bits());
      messages.push_back(m);
    }
    const net::MessageSet set(messages);
    for (const bool exclusive : {false, true}) {
      TableBuildOptions options;
      options.exclusive_slots = exclusive;
      const auto table = StaticScheduleTable::build(set, cfg, options);
      const FullScan want = full_scan_build(set, cfg, exclusive);
      const std::string where = "trial " + std::to_string(trial) +
                                (exclusive ? " exclusive" : " cyclic");
      ASSERT_EQ(table.assignments().size(), want.placed.size()) << where;
      for (std::size_t i = 0; i < want.placed.size(); ++i) {
        const SlotAssignment& got = table.assignments()[i];
        const SlotAssignment& ref = want.placed[i];
        ASSERT_EQ(got.message_id, ref.message_id) << where;
        ASSERT_EQ(got.slot, ref.slot) << where;
        ASSERT_EQ(got.base_cycle, ref.base_cycle) << where;
        ASSERT_EQ(got.repetition, ref.repetition) << where;
        ASSERT_EQ(got.latency, ref.latency) << where;
      }
      ASSERT_EQ(table.unplaced(), want.unplaced) << where;
      ASSERT_EQ(table.deadline_risk(), want.risk) << where;
    }
  }
}

}  // namespace
}  // namespace coeff::sched
