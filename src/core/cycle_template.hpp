// Compiled cycle template: the static schedule flattened for the hot
// path (DESIGN.md §12).
//
// The StaticScheduleTable answers "who owns (slot, cycle)?" by scanning
// the slot's occupant list and testing cycle phases; the MessageSet
// answers "what is message id?" through a linear find; the active
// retransmission plan answers "how many copies?" through a hash lookup.
// A walk that asked them directly would pay all three on every slot of
// every cycle. This template precomputes the composition once per
// (table, plan) pair into flat arrays over [cycle-in-period × slot] —
// SoA: message ref, owner node, payload bits, retransmission-budget
// class — so the steady-state walk is one index computation and
// contiguous loads.
//
// The template is a pure cache: it must be rebuilt (rebuild()) whenever
// any input changes — a plan swap, a membership change, or failover
// re-homing via channel topology events. SchedulerBase owns the
// rebuild triggers and emits a kTemplateRebuild trace record per
// rebuild; the analysis::TraceLint rule `engine.template-invalidation`
// checks at trace level that no transmission ever follows a staleness
// event before the rebuild marker.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/message.hpp"
#include "sched/schedule_table.hpp"
#include "units/units.hpp"

namespace coeff::core {

/// Why a template rebuild happened (trace field c of kTemplateRebuild).
enum class TemplateRebuildWhy : std::uint8_t {
  kInitial = 0,     ///< first build announced at the first cycle start
  kPlanSwap = 1,    ///< retransmission plan re-solved (budget changed)
  kMembership = 2,  ///< node crash/restart/silent-detection replan
  kChannel = 3,     ///< channel down/up (failover re-homing)
};

[[nodiscard]] constexpr const char* to_string(TemplateRebuildWhy why) {
  switch (why) {
    case TemplateRebuildWhy::kInitial:
      return "initial";
    case TemplateRebuildWhy::kPlanSwap:
      return "plan_swap";
    case TemplateRebuildWhy::kMembership:
      return "membership";
    case TemplateRebuildWhy::kChannel:
      return "channel";
  }
  return "?";
}

class CycleTemplate {
 public:
  /// Recompute every array from the current inputs. `budget` maps
  /// message id to its planned retransmission copies (k_z); nullptr or
  /// a missing id mean 0. Message pointers are borrowed from `statics`,
  /// which must stay alive and unmodified while the template is in use.
  void rebuild(const sched::StaticScheduleTable& table,
               const net::MessageSet& statics,
               const std::unordered_map<int, int>* budget,
               std::int64_t num_slots);

  /// Owner of (slot, cycle), or nullptr for an idle occurrence. The
  /// static segment's home channel is A; re-homing under failover is a
  /// runtime decision (channel availability), not baked in here.
  [[nodiscard]] const net::Message* message_at(units::SlotId slot,
                                               units::CycleIndex cycle) const {
    const std::size_t i = index(slot, cycle);
    return cycle.value() >= first_cycle_[i] ? message_[i] : nullptr;
  }
  /// Message id at (slot, cycle), or -1 when idle.
  [[nodiscard]] int message_id_at(units::SlotId slot,
                                  units::CycleIndex cycle) const {
    const std::size_t i = index(slot, cycle);
    return cycle.value() >= first_cycle_[i] ? message_id_[i] : -1;
  }
  /// Owning node at (slot, cycle), or -1 when idle.
  [[nodiscard]] std::int32_t node_at(units::SlotId slot,
                                     units::CycleIndex cycle) const {
    const std::size_t i = index(slot, cycle);
    return cycle.value() >= first_cycle_[i] ? node_[i] : -1;
  }
  /// Payload bits staged for (slot, cycle); 0 when idle.
  [[nodiscard]] std::int64_t payload_bits_at(units::SlotId slot,
                                             units::CycleIndex cycle) const {
    const std::size_t i = index(slot, cycle);
    return cycle.value() >= first_cycle_[i] ? payload_bits_[i] : 0;
  }
  /// Retransmission-budget class (planned copies k_z) of the occupant
  /// of (slot, cycle); 0 when idle or unbudgeted.
  [[nodiscard]] std::int32_t budget_at(units::SlotId slot,
                                       units::CycleIndex cycle) const {
    const std::size_t i = index(slot, cycle);
    return cycle.value() >= first_cycle_[i] ? budget_[i] : 0;
  }

  /// Monotonic rebuild counter (trace field b of kTemplateRebuild).
  [[nodiscard]] std::int64_t version() const { return version_; }
  /// Cycles until the compiled pattern repeats (the table period).
  [[nodiscard]] std::int64_t period_cycles() const { return period_; }
  [[nodiscard]] bool empty() const { return message_.empty(); }

 private:
  [[nodiscard]] std::size_t index(units::SlotId slot,
                                  units::CycleIndex cycle) const {
    const std::int64_t row = cycle.value() % period_;
    return static_cast<std::size_t>(row * num_slots_ + slot.value() - 1);
  }

  // SoA over [cycle-in-period × slot], row-major, slot 1 at column 0.
  // Occupancy is only eventually periodic: a placement's phase starts
  // at its base cycle (offset warm-up), so each cell carries the first
  // cycle at which its steady-state occupant is actually active.
  std::vector<const net::Message*> message_;
  std::vector<int> message_id_;
  std::vector<std::int32_t> node_;
  std::vector<std::int64_t> payload_bits_;
  std::vector<std::int32_t> budget_;
  std::vector<std::int64_t> first_cycle_;
  std::int64_t num_slots_ = 0;
  std::int64_t period_ = 1;
  std::int64_t version_ = 0;
};

}  // namespace coeff::core
