// CycleTemplate: the flattened schedule must agree with the
// StaticScheduleTable it compiles at every (slot, cycle) — including
// warm-up cycles before a placement's base cycle, which are idle in the
// table and must stay idle in the template even though the steady-state
// pattern is baked per cycle-in-slot-period.
#include "core/cycle_template.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <unordered_map>

#include "core/experiment.hpp"
#include "net/message.hpp"
#include "net/workloads.hpp"
#include "sched/schedule_table.hpp"
#include "sim/random.hpp"

namespace coeff::core {
namespace {

net::MessageSet four_statics() {
  net::MessageSet set;
  for (int i = 1; i <= 4; ++i) {
    net::Message m;
    m.id = i;
    m.node = i + 10;
    m.kind = net::MessageKind::kStatic;
    m.period = sim::millis(1);
    m.deadline = sim::millis(1);
    m.size_bits = 100 * i;
    set.add(m);
  }
  return set;
}

/// Three slots: slot 1 owned every cycle; slot 2 cycle-multiplexed
/// between two phases of repetition 2; slot 3 owned every cycle but
/// only from cycle 3 on (offset warm-up: base >= table period, the
/// regression that once baked FSPEC exclusive slots permanently idle).
sched::StaticScheduleTable make_table() {
  std::vector<sched::SlotAssignment> assignments;
  assignments.push_back({1, units::SlotId{1}, units::CycleIndex{0}, 1, {}});
  assignments.push_back({2, units::SlotId{2}, units::CycleIndex{1}, 2, {}});
  assignments.push_back({3, units::SlotId{2}, units::CycleIndex{2}, 2, {}});
  assignments.push_back({4, units::SlotId{3}, units::CycleIndex{3}, 1, {}});
  return sched::StaticScheduleTable::from_assignments(std::move(assignments),
                                                      /*num_slots=*/3);
}

std::int64_t largest_base(const sched::StaticScheduleTable& table) {
  std::int64_t base = 0;
  for (const auto& a : table.assignments()) {
    base = std::max(base, a.base_cycle.value());
  }
  return base;
}

/// Compares both accessors with the table's own answer on every
/// (slot, cycle) with cycle in [from, largest base + 2 table periods):
/// `message_at`, then `statics.find`, then the budget map, gated by the
/// occupant's first active cycle (`assignment_of(id)->base_cycle`).
/// Reports the first disagreement only.
void expect_matches_table(const sched::StaticScheduleTable& table,
                          const net::MessageSet& statics,
                          const std::unordered_map<int, int>& budget,
                          std::int64_t num_slots, std::int64_t from,
                          const std::string& what) {
  CycleTemplate tpl;
  tpl.rebuild(table, statics, &budget, num_slots);
  const std::int64_t to =
      largest_base(table) + 2 * table.table_period_cycles();
  for (std::int64_t slot = 1; slot <= num_slots; ++slot) {
    for (std::int64_t cycle = from; cycle < to; ++cycle) {
      const units::SlotId s{slot};
      const units::CycleIndex c{cycle};
      const auto id = table.message_at(s, c);
      const net::Message* m = id.has_value() ? statics.find(*id) : nullptr;
      if (m != nullptr && c < table.assignment_of(*id)->base_cycle) {
        m = nullptr;
      }
      const auto k = m != nullptr ? budget.find(m->id) : budget.end();
      const net::Message* got = tpl.message_at(s, c);
      const bool agrees =
          got == m &&
          tpl.budget_at(s, c) == (k != budget.end() ? k->second : 0);
      if (!agrees) {
        ADD_FAILURE() << what << ": slot " << slot << " cycle " << cycle
                      << " table says "
                      << (id.has_value() ? std::to_string(*id) : "idle")
                      << ", template says "
                      << (got != nullptr ? std::to_string(got->id) : "idle");
        return;
      }
    }
  }
}

TEST(CycleTemplateTest, AgreesWithTableEverywhereIncludingWarmUp) {
  const auto statics = four_statics();
  const auto table = make_table();
  CycleTemplate tpl;
  tpl.rebuild(table, statics, nullptr, /*num_slots=*/3);
  EXPECT_FALSE(tpl.empty());

  for (std::int64_t cycle = 0; cycle < 16; ++cycle) {
    for (std::int64_t slot = 1; slot <= 3; ++slot) {
      const units::SlotId s{slot};
      const units::CycleIndex c{cycle};
      SCOPED_TRACE("slot=" + std::to_string(slot) +
                   " cycle=" + std::to_string(cycle));
      const auto expected = table.message_at(s, c);
      if (expected.has_value()) {
        const net::Message* m = tpl.message_at(s, c);
        ASSERT_NE(m, nullptr);
        EXPECT_EQ(m->id, *expected);
      } else {
        EXPECT_EQ(tpl.message_at(s, c), nullptr);
      }
    }
  }
  // The warm-up shape itself, spelled out: slot 3 idle before cycle 3.
  EXPECT_EQ(tpl.message_at(units::SlotId{3}, units::CycleIndex{0}), nullptr);
  EXPECT_EQ(tpl.message_at(units::SlotId{3}, units::CycleIndex{2}), nullptr);
  ASSERT_NE(tpl.message_at(units::SlotId{3}, units::CycleIndex{3}), nullptr);
  ASSERT_NE(tpl.message_at(units::SlotId{3}, units::CycleIndex{9}), nullptr);
  EXPECT_EQ(tpl.message_at(units::SlotId{3}, units::CycleIndex{9})->id, 4);
}

TEST(CycleTemplateTest, BudgetColumnFollowsThePlanAndGatesOnWarmUp) {
  const auto statics = four_statics();
  const auto table = make_table();
  const std::unordered_map<int, int> budget = {{1, 3}, {4, 2}};
  CycleTemplate tpl;
  tpl.rebuild(table, statics, &budget, 3);
  EXPECT_EQ(tpl.budget_at(units::SlotId{1}, units::CycleIndex{0}), 3);
  // Unbudgeted occupant -> 0.
  EXPECT_EQ(tpl.budget_at(units::SlotId{2}, units::CycleIndex{1}), 0);
  // Budgeted occupant still warming up -> 0, active -> its k_z.
  EXPECT_EQ(tpl.budget_at(units::SlotId{3}, units::CycleIndex{1}), 0);
  EXPECT_EQ(tpl.budget_at(units::SlotId{3}, units::CycleIndex{4}), 2);
}

TEST(CycleTemplateTest, IdsOutsideTheMessageSetStayIdle) {
  net::MessageSet statics = four_statics();
  std::vector<sched::SlotAssignment> assignments;
  assignments.push_back({1, units::SlotId{1}, units::CycleIndex{0}, 1, {}});
  // A pre-planned clone id (99) with no Message behind it: the template
  // must leave the occurrence idle for the subclass to resolve.
  assignments.push_back({99, units::SlotId{2}, units::CycleIndex{0}, 1, {}});
  const auto table = sched::StaticScheduleTable::from_assignments(
      std::move(assignments), 2);
  CycleTemplate tpl;
  tpl.rebuild(table, statics, nullptr, 2);
  EXPECT_NE(tpl.message_at(units::SlotId{1}, units::CycleIndex{0}), nullptr);
  EXPECT_EQ(tpl.message_at(units::SlotId{2}, units::CycleIndex{0}), nullptr);
}

TEST(CycleTemplateTest, MatchesTableOnSeededTables) {
  const auto cluster = paper_cluster_dynamic_suite(50);
  const std::int64_t slots = cluster.g_number_of_static_slots;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    sim::Rng rng(seed);
    net::SyntheticStaticOptions opt;
    opt.count = static_cast<std::size_t>(rng.uniform_int(1, 100));
    // Repetitions 1..max: table periods from 1 up to synthetic's 2520.
    opt.max_period = sim::millis(5 * rng.uniform_int(1, 10));
    const auto statics = net::synthetic_static(opt, rng);
    std::unordered_map<int, int> budget;
    for (const auto& m : statics.messages()) {
      if (rng.bernoulli(0.5)) {
        budget[m.id] = static_cast<int>(rng.uniform_int(1, 3));
      }
    }
    // Every other seed hands the template a prefix of the set, so the
    // table carries ids the template must leave idle.
    const auto known =
        seed % 2 == 0 ? statics.prefix(statics.size() * 3 / 4) : statics;
    sched::TableBuildOptions exclusive;
    exclusive.exclusive_slots = true;
    for (const auto& options : {sched::TableBuildOptions{}, exclusive}) {
      const auto table =
          sched::StaticScheduleTable::build(statics, cluster, options);
      expect_matches_table(
          table, known, budget, slots, 0,
          "seed " + std::to_string(seed) +
              (options.exclusive_slots ? " exclusive" : " multiplexed"));
    }
  }

  // from_assignments tables, which no legality check guards.
  const auto statics = four_statics();
  const std::unordered_map<int, int> budget = {{1, 2}, {2, 1}, {4, 3}};
  // Colliding phases in one slot: id 1 every 2nd cycle from 0, id 2
  // every 3rd from 1 (both own cycle 4, and the first placement wins
  // it), id 3 every cycle from 5, filling what the others leave. Before
  // the largest base a colliding phase can answer for a placement that
  // has not started yet, so compare from there on.
  std::vector<sched::SlotAssignment> colliding;
  colliding.push_back({1, units::SlotId{1}, units::CycleIndex{0}, 2, {}});
  colliding.push_back({2, units::SlotId{1}, units::CycleIndex{1}, 3, {}});
  colliding.push_back({3, units::SlotId{1}, units::CycleIndex{5}, 1, {}});
  const auto collide =
      sched::StaticScheduleTable::from_assignments(colliding, 1);
  expect_matches_table(collide, statics, budget, 1, largest_base(collide),
                       "colliding phases");
  // The other oddities hold from cycle 0.
  std::vector<sched::SlotAssignment> odd;
  // An id outside the set shadows id 4 on slot 1's even cycles.
  odd.push_back({99, units::SlotId{1}, units::CycleIndex{0}, 2, {}});
  odd.push_back({4, units::SlotId{1}, units::CycleIndex{0}, 1, {}});
  // Id 4 placed twice: assignment_of(4) is this later placement, so id
  // 4 starts at cycle 3 in slot 1 too.
  odd.push_back({4, units::SlotId{2}, units::CycleIndex{3}, 4, {}});
  // Entries the table does not index: a slot out of range on either
  // side, and a repetition of 0.
  odd.push_back({1, units::SlotId{4}, units::CycleIndex{0}, 1, {}});
  odd.push_back({2, units::SlotId{0}, units::CycleIndex{0}, 1, {}});
  odd.push_back({3, units::SlotId{3}, units::CycleIndex{0}, 0, {}});
  const auto oddities = sched::StaticScheduleTable::from_assignments(odd, 3);
  expect_matches_table(oddities, statics, budget, 3, 0, "oddities");
}

TEST(CycleTemplateTest, StoresOneRowPerSlotPeriod) {
  const auto cells_of = [](const sched::StaticScheduleTable& table,
                           const net::MessageSet& statics,
                           std::int64_t slots) {
    CycleTemplate tpl;
    tpl.rebuild(table, statics, nullptr, slots);
    return static_cast<std::int64_t>(tpl.cells());
  };
  // Hand-built: slot 1 repetition 1, slot 2 repetitions 2 and 2, slot 3
  // repetition 1 -> 1 + 2 + 1 cells, where the table period alone would
  // give 2 x 3.
  EXPECT_EQ(cells_of(make_table(), four_statics(), 3), 4);

  // Synthetic (seed 42, 100 messages), as `coeffctl --workload
  // synthetic` builds it: table period 2520 cycles over 80 slots, that
  // is 201,600 cells at one row per table-period cycle.
  const auto cluster = paper_cluster_dynamic_suite(50);
  const std::int64_t slots = cluster.g_number_of_static_slots;
  sim::Rng rng(42);
  const auto statics = net::synthetic_static({}, rng);
  const auto table = sched::StaticScheduleTable::build(statics, cluster);
  ASSERT_EQ(table.table_period_cycles(), 2520);
  std::vector<std::int64_t> period(static_cast<std::size_t>(slots), 1);
  for (const auto& a : table.assignments()) {
    auto& p = period[static_cast<std::size_t>(a.slot.value() - 1)];
    p = std::lcm(p, a.repetition);
  }
  const std::int64_t cells = cells_of(table, statics, slots);
  EXPECT_EQ(cells, std::accumulate(period.begin(), period.end(),
                                   std::int64_t{0}));
  EXPECT_LE(cells, slots * table.table_period_cycles());
  EXPECT_EQ(cells, 522);
}

TEST(CycleTemplateTest, VersionAdvancesPerRebuild) {
  const auto statics = four_statics();
  const auto table = make_table();
  CycleTemplate tpl;
  EXPECT_EQ(tpl.version(), 0);
  EXPECT_TRUE(tpl.empty());
  tpl.rebuild(table, statics, nullptr, 3);
  EXPECT_EQ(tpl.version(), 1);
  tpl.rebuild(table, statics, nullptr, 3);
  EXPECT_EQ(tpl.version(), 2);
}

}  // namespace
}  // namespace coeff::core
