// FlexRay cluster configuration.
//
// Parameter names follow the FlexRay Protocol Specification v2.1
// conventions: `gd*` are global duration parameters, `g*` global counts,
// `p*` per-node parameters. The paper's evaluation (§IV-A) uses
// gdMacrotick = 1 us, gdMinislot = 8 MT, gdStaticSlot = 40 MT,
// gNumberOfStaticSlots in {80, 120}, gNumberOfMinislots in {25..100},
// and cycles of 5 ms (static suite) or 1 ms (dynamic suite).
//
// Macrotick-denominated durations carry the units::Macroticks strong
// type (DESIGN.md §10): a gd* parameter can no longer be mixed with a
// slot count or a raw nanosecond value without an explicit conversion.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"
#include "units/convert.hpp"
#include "units/units.hpp"

namespace coeff::flexray {

/// The two redundant FlexRay channels.
enum class ChannelId : std::uint8_t { kA = 0, kB = 1 };
inline constexpr int kNumChannels = 2;

[[nodiscard]] constexpr const char* to_string(ChannelId c) {
  return c == ChannelId::kA ? "A" : "B";
}

/// 11-bit frame identifier; equals the slot number it is sent in.
/// A strong type (units::FrameId): constructing one from a slot number
/// goes through units::to_frame_id, and the raw wire value is `.value()`.
using FrameId = units::FrameId;

struct ClusterConfig {
  // --- Global timing -----------------------------------------------------
  /// Duration of one macrotick. All other durations are multiples of it.
  sim::Time gd_macrotick = sim::micros(1);
  /// Macroticks per communication cycle (gMacroPerCycle).
  units::Macroticks g_macro_per_cycle{5000};

  // --- Static segment ----------------------------------------------------
  /// Number of static slots per cycle (gNumberOfStaticSlots).
  std::int64_t g_number_of_static_slots = 80;
  /// Macroticks per static slot (gdStaticSlot).
  units::Macroticks gd_static_slot{40};

  // --- Dynamic segment ---------------------------------------------------
  /// Number of minislots in the dynamic segment (gNumberOfMinislots).
  std::int64_t g_number_of_minislots = 50;
  /// Macroticks per minislot (gdMinislot).
  units::Macroticks gd_minislot{8};
  /// Idle phase appended to every used dynamic slot, in minislots
  /// (gdDynamicSlotIdlePhase).
  std::int64_t gd_dynamic_slot_idle_phase = 1;
  /// Action-point offset inside a minislot (gdMinislotActionPointOffset).
  /// Purely a latency offset here.
  units::Macroticks gd_minislot_action_point_offset{2};
  /// Last minislot in which a transmission may *start*
  /// (pLatestTx; per-node in the spec, cluster-wide here as in the paper).
  units::MinislotId p_latest_tx{0};  ///< 0 = derive as g_number_of_minislots

  // --- Symbol window / NIT -----------------------------------------------
  /// Macroticks of symbol window (gdSymbolWindow; 0 in the paper).
  units::Macroticks gd_symbol_window{0};

  // --- Payload / bus -----------------------------------------------------
  /// Bus bit rate in bits per second (10 Mbit/s per the FlexRay spec).
  std::int64_t bus_bit_rate = 10'000'000;
  /// Maximum payload of one frame, in bits (254 bytes per the spec).
  std::int64_t max_payload_bits = 254 * 8;

  /// Number of ECU nodes in the cluster.
  int num_nodes = 10;

  // --- Derived quantities --------------------------------------------------
  [[nodiscard]] sim::Time cycle_duration() const {
    return units::to_time(g_macro_per_cycle, gd_macrotick);
  }
  [[nodiscard]] sim::Time static_slot_duration() const {
    return units::to_time(gd_static_slot, gd_macrotick);
  }
  [[nodiscard]] sim::Time static_segment_duration() const {
    return static_slot_duration() * g_number_of_static_slots;
  }
  [[nodiscard]] sim::Time minislot_duration() const {
    return units::to_time(gd_minislot, gd_macrotick);
  }
  [[nodiscard]] sim::Time dynamic_segment_duration() const {
    return minislot_duration() * g_number_of_minislots;
  }
  [[nodiscard]] sim::Time symbol_window_duration() const {
    return units::to_time(gd_symbol_window, gd_macrotick);
  }
  /// Network idle time: whatever remains of the cycle after the
  /// static segment, dynamic segment and symbol window.
  [[nodiscard]] sim::Time network_idle_time() const {
    return cycle_duration() - static_segment_duration() -
           dynamic_segment_duration() - symbol_window_duration();
  }
  // --- Where cycles, static slots and minislots start ---------------------
  // The protocol's timing arithmetic, kept here once. A walk that visits
  // slot after slot takes its first start from these and then steps by
  // the slot or minislot duration.

  /// Absolute start time of cycle `c`.
  [[nodiscard]] sim::Time cycle_start(units::CycleIndex c) const {
    return cycle_duration() * c.value();
  }
  /// Absolute start time of static slot `slot` (1-based) in cycle `c`;
  /// throws std::invalid_argument outside [1, gNumberOfStaticSlots].
  [[nodiscard]] sim::Time static_slot_start(units::CycleIndex c,
                                            units::SlotId slot) const;
  /// Absolute start time of minislot `m` (0-based) in cycle `c`; throws
  /// std::invalid_argument outside [0, gNumberOfMinislots).
  [[nodiscard]] sim::Time minislot_start(units::CycleIndex c,
                                         units::MinislotId m) const;

  /// Effective pLatestTx (derives the default).
  [[nodiscard]] units::MinislotId latest_tx_minislot() const {
    return p_latest_tx.value() > 0 ? p_latest_tx
                                   : units::MinislotId{g_number_of_minislots};
  }
  /// Time to clock `bits` onto the bus.
  [[nodiscard]] sim::Time transmission_time(std::int64_t bits) const;
  /// Bits that fit in one static slot (slot duration * bit rate).
  [[nodiscard]] std::int64_t static_slot_capacity_bits() const;
  /// Minislots consumed by a dynamic transmission of `bits`, including
  /// the dynamic-slot idle phase.
  [[nodiscard]] std::int64_t minislots_for(std::int64_t bits) const;

  /// Throws std::invalid_argument naming the first violated constraint.
  void validate() const;

  /// Paper §IV-A static-suite configuration: 5 ms cycle, 3 ms static
  /// segment (75 slots of 40 MT), remaining budget dynamic.
  [[nodiscard]] static ClusterConfig static_suite(
      std::int64_t num_static_slots = 80);

  /// Paper §IV-A dynamic-suite configuration: 1 ms cycle, 0.75 ms static
  /// segment, `minislots` dynamic minislots.
  [[nodiscard]] static ClusterConfig dynamic_suite(std::int64_t minislots = 50);

  /// Paper §IV-A application-suite configuration for BBW/ACC (whose
  /// fastest period is 1 ms): 1 ms cycle, 0.75 ms static segment of 15
  /// slots x 50 MT, remaining bandwidth dynamic.
  [[nodiscard]] static ClusterConfig app_suite(std::int64_t minislots = 25);
};

[[nodiscard]] std::string describe(const ClusterConfig& cfg);

}  // namespace coeff::flexray
