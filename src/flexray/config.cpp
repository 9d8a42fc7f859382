#include "flexray/config.hpp"

#include <cstdio>
#include <stdexcept>

namespace coeff::flexray {

namespace {
void require(bool ok, const char* what) {
  if (!ok) {
    throw std::invalid_argument(std::string("ClusterConfig: ") + what);
  }
}
}  // namespace

sim::Time ClusterConfig::transmission_time(std::int64_t bits) const {
  // ceil(bits / rate) in nanoseconds: bits * 1e9 / rate, rounded up.
  const std::int64_t ns =
      (bits * 1'000'000'000 + bus_bit_rate - 1) / bus_bit_rate;
  return sim::nanos(ns);
}

sim::Time ClusterConfig::static_slot_start(units::CycleIndex c,
                                          units::SlotId slot) const {
  if (slot.value() < 1 || slot.value() > g_number_of_static_slots) {
    throw std::invalid_argument("static_slot_start: slot out of range");
  }
  return cycle_start(c) + static_slot_duration() * (slot.value() - 1);
}

sim::Time ClusterConfig::minislot_start(units::CycleIndex c,
                                        units::MinislotId m) const {
  if (m.value() < 0 || m.value() >= g_number_of_minislots) {
    throw std::invalid_argument("minislot_start: minislot out of range");
  }
  return cycle_start(c) + static_segment_duration() +
         minislot_duration() * m.value();
}

std::int64_t ClusterConfig::static_slot_capacity_bits() const {
  return static_slot_duration().ns() * bus_bit_rate / 1'000'000'000;
}

std::int64_t ClusterConfig::minislots_for(std::int64_t bits) const {
  const sim::Time tx = transmission_time(bits);
  const units::Macroticks used_mt = units::ceil_macroticks(tx, gd_macrotick);
  // Whole minislots covering the wire time, rounded up to the grid.
  const std::int64_t used =
      (used_mt.count() + gd_minislot.count() - 1) / gd_minislot.count();
  return used + gd_dynamic_slot_idle_phase;
}

void ClusterConfig::validate() const {
  require(gd_macrotick > sim::Time::zero(), "gdMacrotick must be positive");
  require(g_macro_per_cycle > units::Macroticks::zero(),
          "gMacroPerCycle must be positive");
  require(g_number_of_static_slots > 0,
          "gNumberOfStaticSlots must be positive");
  require(gd_static_slot > units::Macroticks::zero(),
          "gdStaticSlot must be positive");
  require(g_number_of_minislots >= 0,
          "gNumberOfMinislots must be non-negative");
  require(gd_minislot > units::Macroticks::zero(),
          "gdMinislot must be positive");
  require(gd_dynamic_slot_idle_phase >= 0,
          "gdDynamicSlotIdlePhase must be non-negative");
  require(gd_minislot_action_point_offset >= units::Macroticks::zero(),
          "gdMinislotActionPointOffset must be non-negative");
  require(gd_minislot_action_point_offset < gd_minislot,
          "gdMinislotActionPointOffset must fit inside one minislot");
  require(gd_symbol_window >= units::Macroticks::zero(),
          "gdSymbolWindow must be non-negative");
  require(bus_bit_rate > 0, "bus bit rate must be positive");
  require(max_payload_bits > 0, "max payload must be positive");
  require(num_nodes > 0, "cluster needs at least one node");
  require(p_latest_tx.value() >= 0, "pLatestTx must be non-negative");
  require(latest_tx_minislot() <= units::MinislotId{g_number_of_minislots},
          "pLatestTx must not exceed gNumberOfMinislots");
  require(network_idle_time() >= sim::Time::zero(),
          "segments exceed the communication cycle");
  // A static slot must be able to carry a maximum-size frame; otherwise
  // the schedule table cannot be populated safely.
  require(static_slot_capacity_bits() > 0, "static slot carries zero bits");
}

ClusterConfig ClusterConfig::static_suite(std::int64_t num_static_slots) {
  ClusterConfig cfg;
  cfg.g_macro_per_cycle = units::Macroticks{5000};  // 5 ms at 1 us macroticks
  cfg.g_number_of_static_slots = num_static_slots;
  cfg.gd_static_slot = units::Macroticks{40};
  cfg.gd_minislot = units::Macroticks{8};
  // Give the dynamic segment all macroticks the static segment leaves.
  const units::Macroticks remaining =
      cfg.g_macro_per_cycle - num_static_slots * cfg.gd_static_slot;
  if (remaining < units::Macroticks::zero()) {
    throw std::invalid_argument(
        "ClusterConfig::static_suite: static segment exceeds the cycle");
  }
  cfg.g_number_of_minislots = remaining / cfg.gd_minislot;
  cfg.validate();
  return cfg;
}

ClusterConfig ClusterConfig::dynamic_suite(std::int64_t minislots) {
  ClusterConfig cfg;
  cfg.g_macro_per_cycle = units::Macroticks{5000};
  cfg.g_number_of_static_slots = 80;
  cfg.gd_static_slot = units::Macroticks{40};
  cfg.gd_minislot = units::Macroticks{8};
  cfg.g_number_of_minislots = minislots;
  cfg.validate();
  return cfg;
}

ClusterConfig ClusterConfig::app_suite(std::int64_t minislots) {
  ClusterConfig cfg;
  cfg.g_macro_per_cycle = units::Macroticks{1000};  // 1 ms cycle
  cfg.g_number_of_static_slots = 15;
  cfg.gd_static_slot = units::Macroticks{50};  // 0.75 ms static segment
  cfg.gd_minislot = units::Macroticks{8};
  cfg.g_number_of_minislots = minislots;
  cfg.validate();
  return cfg;
}

std::string describe(const ClusterConfig& cfg) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "cycle=%s static=%lldx%lldMT dynamic=%lld minislots x %lldMT "
      "symbol=%lldMT NIT=%s rate=%lldbps nodes=%d",
      sim::to_string(cfg.cycle_duration()).c_str(),
      static_cast<long long>(cfg.g_number_of_static_slots),
      static_cast<long long>(cfg.gd_static_slot.count()),
      static_cast<long long>(cfg.g_number_of_minislots),
      static_cast<long long>(cfg.gd_minislot.count()),
      static_cast<long long>(cfg.gd_symbol_window.count()),
      sim::to_string(cfg.network_idle_time()).c_str(),
      static_cast<long long>(cfg.bus_bit_rate), cfg.num_nodes);
  return buf;
}

}  // namespace coeff::flexray
