// Compiled cycle template: the static schedule flattened for the hot
// path (DESIGN.md §12).
//
// The StaticScheduleTable answers "who owns (slot, cycle)?" by scanning
// the slot's occupant list and testing cycle phases, and the MessageSet
// answers "what is message id?" through a linear find. A walk that asked
// them directly would pay both on every slot of every cycle. This
// template precomputes the composition into flat SoA arrays — message
// ref, first active cycle — so the steady-state walk is one index
// computation and a few loads.
//
// Each slot keeps its own period: the LCM of the repetitions of the
// placements it hosts (1 when idle), as a FlexRay controller filters
// each buffer by base cycle and cycle repetition. Slot s owns rows
// [row0[s], row0[s] + period[s]) and (slot, cycle) reads row
// row0[s] + cycle % period[s]. Each period divides the table period, so
// the template never stores more than slots × table-period cells, and
// usually far fewer (DESIGN.md §12).
//
// SchedulerBase builds its template once, in its constructor, from the
// table and the static set, and neither changes afterwards: the static
// schedule is cluster configuration. What does change at run time —
// node liveness, channel availability, CoEfficient's retransmission
// plan — the schemes read from their own state at each decision, so
// nothing can make the template stale.
//
// The budget column (budget_at) is filled only from a budget map given
// to rebuild(). The schedulers pass none, so it reads 0 there; it stays
// for the perfbench probe that times a build with one.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/message.hpp"
#include "sched/schedule_table.hpp"
#include "units/units.hpp"

namespace coeff::core {

class CycleTemplate {
 public:
  /// Compute every array from the inputs. `budget` maps message id to
  /// its planned retransmission copies (k_z); nullptr or a missing id
  /// mean 0. `num_slots` is the table's static slot count. Message
  /// pointers are borrowed from `statics`, which must stay alive and
  /// unmodified while the template is in use.
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
  /// Retransmission-budget class (planned copies k_z) of the occupant
  /// of (slot, cycle); 0 when idle or unbudgeted.
  [[nodiscard]] std::int32_t budget_at(units::SlotId slot,
                                       units::CycleIndex cycle) const {
    const std::size_t i = index(slot, cycle);
    return cycle.value() >= first_cycle_[i] ? budget_[i] : 0;
  }

  /// Stored (slot, cycle-in-slot-period) cells: the sum of the slot
  /// periods.
  [[nodiscard]] std::size_t cells() const { return message_.size(); }
  [[nodiscard]] bool empty() const { return message_.empty(); }

 private:
  struct SlotRows {
    std::int64_t row0;    ///< first cell of the slot
    std::int64_t period;  ///< LCM of the slot's repetitions, >= 1
  };

  [[nodiscard]] std::size_t index(units::SlotId slot,
                                  units::CycleIndex cycle) const {
    const SlotRows& s = slots_[static_cast<std::size_t>(slot.value() - 1)];
    return static_cast<std::size_t>(s.row0 + cycle.value() % s.period);
  }

  // SoA over the cells of every slot, slot 1's rows first. Occupancy is
  // only eventually periodic: a placement's phase starts at its base
  // cycle (offset warm-up), so each cell carries the first cycle at
  // which its steady-state occupant is actually active.
  std::vector<SlotRows> slots_;
  std::vector<const net::Message*> message_;
  std::vector<std::int32_t> budget_;
  std::vector<std::int64_t> first_cycle_;
};

}  // namespace coeff::core
