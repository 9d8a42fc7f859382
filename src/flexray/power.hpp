// Per-node DVFS/DPM power model (DESIGN.md §16).
//
// Models the communication-side energy of a FlexRay node: the host
// controller draws a DVFS-scaled baseline all cycle, the bus driver
// pays a transmit premium for every bit on the wire, and transceivers
// either *listen* through idle static slots (ready to steal slack) or
// *sleep* through them when the scheduler knows no retransmission can
// want the slack. Slack not stolen for retransmissions is thereby
// spent sleeping transceivers — the energy counterpart of selective
// slack stealing.
//
// Deliberately below the sched/ layer: DVFS operating points are plain
// integers (0 = full speed), so the mixed-criticality mode machine can
// map modes onto them without a dependency cycle. All arithmetic is a
// pure function of per-cycle inputs that are identical across engines
// and job counts, so energy figures are deterministic.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace coeff::flexray {

/// Number of DVFS operating points (0 = full speed, deeper = slower
/// and cheaper). The mode machine maps NORMAL/L1/L2 onto 0/1/2.
inline constexpr int kDvfsLevels = 3;

/// Per-run energy accumulator. The scheduler feeds it once per cycle
/// from its cycle-end hook with decide-side aggregates (wire bits,
/// idle-slot count, sleep eligibility, DVFS level). The node's power
/// draws are fixed constants of the model (power.cpp).
class EnergyMeter {
 public:
  /// Throws std::invalid_argument unless num_nodes >= 1 and
  /// bus_bit_rate > 0.
  EnergyMeter(int num_nodes, double bus_bit_rate);

  /// Account one communication cycle; returns this cycle's energy (uJ).
  ///  * `tx_bits`     — payload bits clocked onto the wire this cycle
  ///                    (all channels, corrupted copies included — the
  ///                    driver paid for them either way);
  ///  * `idle_slots`  — static slot decisions that left the wire idle;
  ///  * `may_sleep`   — true when the scheduler proves no pending
  ///                    retransmission could claim the idle slack, so
  ///                    transceivers gate off instead of listening;
  ///  * `dvfs_level`  — operating point in [0, kDvfsLevels).
  double on_cycle(sim::Time cycle_duration, std::int64_t tx_bits,
                  std::int64_t idle_slots, sim::Time slot_duration,
                  bool may_sleep, int dvfs_level);

  [[nodiscard]] double total_uj() const { return total_uj_; }
  /// Energy the sleep decisions saved vs. always-listen (uJ).
  [[nodiscard]] double sleep_saved_uj() const { return sleep_saved_uj_; }
  [[nodiscard]] std::int64_t cycles() const { return cycles_; }
  [[nodiscard]] std::int64_t slots_slept() const { return slots_slept_; }

 private:
  int num_nodes_;
  double bus_bit_rate_;
  double total_uj_ = 0.0;
  double sleep_saved_uj_ = 0.0;
  std::int64_t cycles_ = 0;
  std::int64_t slots_slept_ = 0;
};

}  // namespace coeff::flexray
