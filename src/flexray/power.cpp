#include "flexray/power.hpp"

#include <array>
#include <cstdio>
#include <stdexcept>

namespace coeff::flexray {

namespace {

/// Host controller + CC baseline per node at DVFS level 0, mW.
constexpr double kControllerMw = 45.0;
/// Extra power while driving bits onto one channel, mW.
constexpr double kTxMw = 120.0;
/// Transceiver listening through an idle static slot, mW.
constexpr double kIdleListenMw = 25.0;
/// Transceiver sleeping through an idle static slot, mW.
constexpr double kSleepMw = 1.5;
/// Controller-power scale factor per DVFS level.
constexpr std::array<double, kDvfsLevels> kDvfsScale = {1.0, 0.72, 0.55};

[[noreturn]] void invalid(const char* option, double value) {
  char msg[128];
  std::snprintf(msg, sizeof msg, "EnergyMeter: %s = %g invalid", option,
                value);
  throw std::invalid_argument(msg);
}

/// mW * simulated time -> microjoules.
double mw_times(double mw, sim::Time t) { return mw * t.as_seconds() * 1e3; }

}  // namespace

EnergyMeter::EnergyMeter(int num_nodes, double bus_bit_rate)
    : num_nodes_(num_nodes), bus_bit_rate_(bus_bit_rate) {
  if (num_nodes < 1) invalid("num_nodes", num_nodes);
  if (bus_bit_rate <= 0.0) invalid("bus_bit_rate", bus_bit_rate);
}

double EnergyMeter::on_cycle(sim::Time cycle_duration, std::int64_t tx_bits,
                             std::int64_t idle_slots, sim::Time slot_duration,
                             bool may_sleep, int dvfs_level) {
  if (dvfs_level < 0) dvfs_level = 0;
  if (dvfs_level >= kDvfsLevels) dvfs_level = kDvfsLevels - 1;

  // Host controllers: DVFS-scaled baseline, every node, all cycle.
  const double scale = kDvfsScale[static_cast<std::size_t>(dvfs_level)];
  double uj = mw_times(kControllerMw * scale, cycle_duration) *
              static_cast<double>(num_nodes_);

  // Bus drivers: the transmit premium for the time the wire was busy.
  const double tx_seconds = static_cast<double>(tx_bits) / bus_bit_rate_;
  uj += kTxMw * tx_seconds * 1e3;

  // Idle static slots: listen (slack could be claimed) or sleep (the
  // scheduler proved nothing can want it).
  const double idle_uj_listen = mw_times(kIdleListenMw, slot_duration) *
                                static_cast<double>(idle_slots);
  if (may_sleep && idle_slots > 0) {
    const double idle_uj_sleep = mw_times(kSleepMw, slot_duration) *
                                 static_cast<double>(idle_slots);
    uj += idle_uj_sleep;
    sleep_saved_uj_ += idle_uj_listen - idle_uj_sleep;
    slots_slept_ += idle_slots;
  } else {
    uj += idle_uj_listen;
  }

  total_uj_ += uj;
  ++cycles_;
  return uj;
}

}  // namespace coeff::flexray
