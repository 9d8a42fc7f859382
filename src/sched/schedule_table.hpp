// Static-segment schedule table construction.
//
// Maps each static message to a (slot, base_cycle, repetition) triple:
// the message transmits in static slot `slot` of every cycle
// base_cycle + k * repetition. Messages with periods larger than the
// communication cycle share one slot through cycle multiplexing
// (disjoint phases), as in the FlexRay spec and the static-segment
// scheduling literature the paper builds on ([14], [15]).
//
// Placement is greedy in (deadline, period) order: each message takes
// the first (slot, base) candidate of least fixed release-to-completion
// latency, which meets the deadline whenever any candidate does. When
// that latency exceeds the deadline (e.g. deadline < cycle, which TDMA
// cannot honour) the message is listed in `deadline_risk`.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "flexray/config.hpp"
#include "net/message.hpp"
#include "sim/time.hpp"
#include "units/units.hpp"

namespace coeff::sched {

struct SlotAssignment {
  int message_id = 0;
  units::SlotId slot{0};        ///< 1-based static slot
  units::CycleIndex base_cycle{0};  ///< first transmitting cycle
  std::int64_t repetition = 1;  ///< transmit every `repetition` cycles
  sim::Time latency;  ///< fixed release-to-slot-end latency of this placement
};

struct TableBuildOptions {
  /// Reserve a whole slot per message (repetition 1, owned every cycle)
  /// instead of cycle multiplexing — the plain FlexRay-spec behaviour
  /// the FSPEC baseline models. Wastes the occurrences between releases.
  bool exclusive_slots = false;
};

class StaticScheduleTable {
 public:
  /// Build the table. Throws std::invalid_argument if any message period
  /// is not a whole multiple of the communication cycle or any payload
  /// exceeds the static slot capacity.
  static StaticScheduleTable build(const net::MessageSet& statics,
                                   const flexray::ClusterConfig& cfg,
                                   const TableBuildOptions& options = {});

  /// Assemble a table from externally-authored assignments (a
  /// communication matrix maintained outside the builder). Performs NO
  /// legality checking — pair with analysis::lint_schedule, which is
  /// the checker for such tables.
  static StaticScheduleTable from_assignments(
      std::vector<SlotAssignment> assignments, std::int64_t num_slots);

  /// Message id occupying (slot, cycle), or nullopt if the slot is idle
  /// there.
  [[nodiscard]] std::optional<int> message_at(units::SlotId slot,
                                              units::CycleIndex cycle) const;

  [[nodiscard]] const std::vector<SlotAssignment>& assignments() const {
    return assignments_;
  }
  [[nodiscard]] const SlotAssignment* assignment_of(int message_id) const;

  /// Messages that could not be placed at all (no free slot phase).
  [[nodiscard]] const std::vector<int>& unplaced() const { return unplaced_; }
  /// Messages placed with latency > deadline (TDMA cannot do better).
  [[nodiscard]] const std::vector<int>& deadline_risk() const {
    return deadline_risk_;
  }

  /// Number of distinct slots with at least one occupant.
  [[nodiscard]] std::int64_t slots_used() const;

  /// LCM of all repetitions: the table repeats with this many cycles.
  [[nodiscard]] std::int64_t table_period_cycles() const {
    return table_period_;
  }

 private:
  struct Occupant {
    units::CycleIndex base;
    std::int64_t repetition;
    int message_id;
  };

  std::vector<SlotAssignment> assignments_;
  std::unordered_map<int, std::size_t> by_message_;
  std::vector<std::vector<Occupant>> slot_occupants_;  ///< index slot-1
  std::vector<int> unplaced_;
  std::vector<int> deadline_risk_;
  std::int64_t num_slots_ = 0;
  std::int64_t table_period_ = 1;
};

}  // namespace coeff::sched
