#include "sched/schedule_table.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace coeff::sched {

namespace {

/// Two multiplexed occupants (b1, r1) and (b2, r2) collide iff some cycle
/// satisfies c = b1 (mod r1) and c = b2 (mod r2) with c >= max(b1, b2);
/// by CRT that is exactly when (b1 - b2) is divisible by gcd(r1, r2).
bool phases_conflict(units::CycleIndex b1, std::int64_t r1,
                     units::CycleIndex b2, std::int64_t r2) {
  const std::int64_t g = std::gcd(r1, r2);
  return ((b1 - b2) % g + g) % g == 0;
}

}  // namespace

StaticScheduleTable StaticScheduleTable::build(
    const net::MessageSet& statics, const flexray::ClusterConfig& cfg,
    const TableBuildOptions& options) {
  cfg.validate();
  statics.validate();

  StaticScheduleTable table;
  table.num_slots_ = cfg.g_number_of_static_slots;
  table.slot_occupants_.resize(static_cast<std::size_t>(table.num_slots_));

  const sim::Time cycle = cfg.cycle_duration();
  const sim::Time slot_dur = cfg.static_slot_duration();

  // Most-constrained first: tightest deadline, then shortest period.
  std::vector<const net::Message*> order;
  for (const auto& m : statics.messages()) {
    if (m.kind != net::MessageKind::kStatic) continue;
    order.push_back(&m);
  }
  std::sort(order.begin(), order.end(),
            [](const net::Message* a, const net::Message* b) {
              if (a->deadline != b->deadline) return a->deadline < b->deadline;
              if (a->period != b->period) return a->period < b->period;
              return a->id < b->id;
            });

  for (const net::Message* m : order) {
    if (m->period % cycle != sim::Time::zero()) {
      throw std::invalid_argument(
          "StaticScheduleTable: message " + std::to_string(m->id) +
          " period is not a multiple of the communication cycle");
    }
    if (m->size_bits > cfg.static_slot_capacity_bits()) {
      throw std::invalid_argument(
          "StaticScheduleTable: message " + std::to_string(m->id) +
          " payload (" + std::to_string(m->size_bits) +
          " bits) exceeds the static slot capacity (" +
          std::to_string(cfg.static_slot_capacity_bits()) + " bits)");
    }
    const std::int64_t repetition =
        options.exclusive_slots
            ? 1
            : std::max<std::int64_t>(1, m->period / cycle);

    // Evaluate (slot, base) candidates; latency is constant across
    // jobs: latency = base*cycle + slot_offset + slot_dur - msg_offset.
    // Keep the first least-latency one: if any candidate meets the
    // deadline, it does. A slot's candidates are no better than
    // slot_offset + slot_dur - msg_offset, which grows with the slot,
    // so the scan stops once that bound reaches the best (a tie never
    // replaces the first).
    std::optional<SlotAssignment> best;
    for (units::SlotId slot{1}; slot.value() <= table.num_slots_; ++slot) {
      const sim::Time slot_offset = slot_dur * (slot.value() - 1);
      if (best && slot_offset + slot_dur - m->offset >= best->latency) break;
      // Earliest base cycle whose slot starts at/after the first release.
      units::CycleIndex base{0};
      if (slot_offset < m->offset) {
        const sim::Time gap = m->offset - slot_offset;
        base = units::CycleIndex{(gap.ns() + cycle.ns() - 1) / cycle.ns()};
      }
      // Advance base within the repetition to a free phase.
      const auto& occupants =
          table.slot_occupants_[static_cast<std::size_t>(slot.value() - 1)];
      std::optional<units::CycleIndex> free_base;
      for (std::int64_t probe = 0; probe < repetition; ++probe) {
        const units::CycleIndex b = base + probe;
        const bool clash = std::any_of(
            occupants.begin(), occupants.end(), [&](const Occupant& o) {
              return phases_conflict(b, repetition, o.base, o.repetition);
            });
        if (!clash) {
          free_base = b;
          break;
        }
      }
      if (!free_base) continue;

      SlotAssignment cand;
      cand.message_id = m->id;
      cand.slot = slot;
      cand.base_cycle = *free_base;
      cand.repetition = repetition;
      cand.latency =
          cycle * free_base->value() + slot_offset + slot_dur - m->offset;
      if (!best || cand.latency < best->latency) best = cand;
    }

    if (!best) {
      table.unplaced_.push_back(m->id);
      continue;
    }
    if (best->latency > m->deadline) table.deadline_risk_.push_back(m->id);
    table.by_message_[m->id] = table.assignments_.size();
    table.assignments_.push_back(*best);
    table.slot_occupants_[static_cast<std::size_t>(best->slot.value() - 1)]
        .push_back({best->base_cycle, best->repetition, m->id});
    table.table_period_ = std::lcm(table.table_period_, best->repetition);
  }

  return table;
}

StaticScheduleTable StaticScheduleTable::from_assignments(
    std::vector<SlotAssignment> assignments, std::int64_t num_slots) {
  StaticScheduleTable table;
  table.num_slots_ = num_slots;
  table.slot_occupants_.resize(
      num_slots > 0 ? static_cast<std::size_t>(num_slots) : 0);
  table.assignments_ = std::move(assignments);
  for (std::size_t i = 0; i < table.assignments_.size(); ++i) {
    const SlotAssignment& a = table.assignments_[i];
    table.by_message_[a.message_id] = i;
    // Out-of-range or degenerate entries stay in `assignments()` for the
    // linter to flag but cannot be indexed by slot.
    if (a.slot.value() >= 1 && a.slot.value() <= num_slots &&
        a.repetition >= 1) {
      table.slot_occupants_[static_cast<std::size_t>(a.slot.value() - 1)]
          .push_back({a.base_cycle, a.repetition, a.message_id});
      table.table_period_ = std::lcm(table.table_period_, a.repetition);
    }
  }
  return table;
}

std::optional<int> StaticScheduleTable::message_at(
    units::SlotId slot, units::CycleIndex cycle) const {
  if (slot.value() < 1 || slot.value() > num_slots_ || cycle.value() < 0) {
    return std::nullopt;
  }
  for (const auto& o :
       slot_occupants_[static_cast<std::size_t>(slot.value() - 1)]) {
    if (cycle >= o.base && (cycle - o.base) % o.repetition == 0) {
      return o.message_id;
    }
  }
  return std::nullopt;
}

const SlotAssignment* StaticScheduleTable::assignment_of(int message_id) const {
  auto it = by_message_.find(message_id);
  if (it == by_message_.end()) return nullptr;
  return &assignments_[it->second];
}

std::int64_t StaticScheduleTable::slots_used() const {
  std::int64_t used = 0;
  for (const auto& occupants : slot_occupants_) {
    if (!occupants.empty()) ++used;
  }
  return used;
}

}  // namespace coeff::sched
