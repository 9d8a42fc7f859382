// Run metrics: everything the paper's evaluation section reports.
//
// Definitions (used consistently by both schedulers):
//  * running time (Fig 1/2): simulated time until every transmission the
//    scheme owes for the batch has been clocked onto the wire.
//  * bandwidth utilization (Fig 3): useful payload bits (each delivered
//    instance counted once) divided by wire capacity elapsed; reported
//    per segment. Redundant/duplicate copies are overhead, not useful.
//  * transmission latency (Fig 4): first successful delivery time minus
//    release, for instances delivered within their deadline.
//  * deadline miss ratio (Fig 5): instances not delivered by their
//    deadline divided by instances released.
#pragma once

#include <cstdint>
#include <string>

#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace coeff::core {

struct SegmentMetrics {
  std::int64_t released = 0;
  std::int64_t delivered = 0;   ///< first success within deadline
  std::int64_t missed = 0;      ///< no success by the deadline (late or never)
  /// Instances whose producing ECU was down at release, or crashed
  /// before delivery. A dead source is a node failure, not a scheduling
  /// failure, so these are excluded from miss_ratio (IEC 61508 treats
  /// them under the availability budget instead).
  std::int64_t source_lost = 0;
  std::int64_t copies_sent = 0; ///< all wire transmissions (incl. mirrors)
  std::int64_t copies_corrupted = 0;
  std::int64_t useful_payload_bits = 0;  ///< first-success instances, once each
  /// Generation-to-first-success time of every transmitted instance,
  /// late ones included (the paper measures latency separately from
  /// deadline misses).
  sim::LatencyStats latency;
  /// Generation-to-last-copy time ("from the generation time to the
  /// ending time", §IV-B3): when the instance's whole transmission —
  /// primary, retransmission copies, mirrors — left the wire. Instances
  /// whose copies were cancelled (best-effort drops) are excluded.
  sim::LatencyStats completion;

  [[nodiscard]] double miss_ratio() const {
    const std::int64_t settled = delivered + missed;
    return settled == 0 ? 0.0
                        : static_cast<double>(missed) /
                              static_cast<double>(settled);
  }
};

struct RunStats {
  SegmentMetrics statics;
  SegmentMetrics dynamics;

  /// Simulated makespan of the batch (see header comment).
  sim::Time running_time;

  /// Wire-level accounting.
  sim::Time static_wire_capacity;   ///< both channels
  sim::Time dynamic_wire_capacity;  ///< both channels
  sim::Time static_wire_busy;
  sim::Time dynamic_wire_busy;

  double bus_bit_rate = 0.0;

  /// Useful payload bits by the wire segment that delivered them (the
  /// first uncorrupted copy): the basis for per-segment utilization.
  /// Note: dynamic messages rescued through stolen static slots count
  /// toward the static wire here.
  std::int64_t useful_bits_static_wire = 0;
  std::int64_t useful_bits_dynamic_wire = 0;

  /// Scheduler-specific counters.
  std::int64_t retransmission_copies_planned = 0;
  std::int64_t retransmission_copies_sent = 0;
  std::int64_t retransmission_copies_dropped = 0;  ///< no slack before deadline
  std::int64_t slack_slots_stolen = 0;  ///< static idle slots reused
  std::int64_t dynamic_in_static_slots = 0;  ///< dynamic frames via stolen slots
  /// No scheduler runs an admission test, so this stays 0. It is kept
  /// because the perfbench run digest (perfbench/layers.cpp) folds it in:
  /// removing it would change every stored reference digest.
  std::int64_t admission_rejections = 0;

  /// Resilience counters (monitor / degraded-mode layer).
  std::int64_t plan_swaps = 0;          ///< online re-plans after BER drift
  std::int64_t dynamic_frames_shed = 0; ///< soft arrivals shed in degraded mode
  bool plan_degraded = false;           ///< current plan misses rho at its BER
  double plan_target_log_r = 0.0;       ///< log rho the current plan aimed at
  double plan_achieved_log_r = 0.0;     ///< log R the current plan achieves

  /// Mixed-criticality mode-change protocol (DESIGN.md §16).
  std::int64_t mode_changes = 0;        ///< cycle-boundary mode swaps
  std::int64_t mode_sheds = 0;          ///< dynamic releases shed by criticality
  std::int64_t matchups = 0;            ///< shed releases re-admitted
  std::int64_t matchup_abandoned = 0;   ///< shed releases expired un-admitted
  std::int64_t mode_cycles_normal = 0;  ///< cycles dwelt in NORMAL
  std::int64_t mode_cycles_l1 = 0;      ///< cycles dwelt in DEGRADED-L1
  std::int64_t mode_cycles_l2 = 0;      ///< cycles dwelt in DEGRADED-L2
  int final_mode = 0;                   ///< mode when the run ended (0/1/2)

  /// Energy accounting (flexray::EnergyMeter; 0 when power disabled).
  double energy_total_uj = 0.0;
  double energy_sleep_saved_uj = 0.0;
  std::int64_t energy_cycles = 0;       ///< cycles the meter accounted
  std::int64_t slots_slept = 0;         ///< idle slots spent sleeping

  [[nodiscard]] double energy_per_cycle_uj() const {
    return energy_cycles == 0
               ? 0.0
               : energy_total_uj / static_cast<double>(energy_cycles);
  }

  /// Structural fault domain: availability / failover / voting.
  std::int64_t node_crashes = 0;
  std::int64_t node_restarts = 0;       ///< reintegrations at cycle boundaries
  std::int64_t channel_outages = 0;     ///< kChannelDown events observed
  std::int64_t channel_down_cycles = 0; ///< cycles begun with >=1 dark channel
  std::int64_t frames_lost = 0;         ///< clocked into a dark channel
  std::int64_t failovers = 0;           ///< static frames re-homed cross-channel
  /// Release-to-delivery latency of instances rescued by a failover copy.
  sim::LatencyStats failover_latency;
  std::int64_t silent_node_detections = 0;
  std::int64_t membership_replans = 0;  ///< plan swaps from membership changes
  std::int64_t votes_accepted = 0;      ///< replica votes reaching majority
  std::int64_t votes_rejected = 0;      ///< replica votes failing majority

  /// Useful-bits utilization per segment (see header comment).
  [[nodiscard]] double static_bandwidth_utilization() const;
  [[nodiscard]] double dynamic_bandwidth_utilization() const;
  [[nodiscard]] double overall_bandwidth_utilization() const;

  /// Fraction of delivered instances among all settled (both segments).
  [[nodiscard]] double overall_miss_ratio() const;

  [[nodiscard]] std::string summary() const;
};

}  // namespace coeff::core
