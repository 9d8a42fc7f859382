// Named conversions between the strong unit types and sim::Time.
//
// Every conversion is explicit and total: exact conversions throw
// std::invalid_argument when the value is off the target grid, and the
// rounding conversions say their rounding mode in their name. The
// macrotick conversions are parameterized by the configured macrotick
// length.
#pragma once

#include <stdexcept>

#include "sim/time.hpp"
#include "units/units.hpp"

namespace coeff::units {

/// Whether `t` lands on the whole-microsecond grid that the message
/// CSV's `period_us`, `offset_us` and `deadline_us` fields are written in.
[[nodiscard]] constexpr bool is_whole_microseconds(sim::Time t) {
  return t.ns() % 1'000 == 0;
}

// --- Macroticks <-> sim::Time (explicit grid) ----------------------------

[[nodiscard]] constexpr sim::Time to_time(Macroticks mt,
                                          sim::Time gd_macrotick) {
  return sim::Time{
      detail::checked_mul(mt.count(), gd_macrotick.ns(), "MT -> Time")};
}

[[nodiscard]] constexpr bool is_on_macrotick_grid(sim::Time t,
                                                  sim::Time gd_macrotick) {
  return gd_macrotick.ns() > 0 && t.ns() % gd_macrotick.ns() == 0;
}

/// Exact conversion; throws when `t` is off the macrotick grid.
[[nodiscard]] constexpr Macroticks to_macroticks(sim::Time t,
                                                 sim::Time gd_macrotick) {
  if (!is_on_macrotick_grid(t, gd_macrotick)) {
    throw std::invalid_argument(
        "to_macroticks: time is not a whole number of macroticks");
  }
  return Macroticks{t.ns() / gd_macrotick.ns()};
}

/// Macroticks needed to cover `t` (rounding up to the next grid line).
[[nodiscard]] constexpr Macroticks ceil_macroticks(sim::Time t,
                                                   sim::Time gd_macrotick) {
  const std::int64_t g = gd_macrotick.ns();
  return Macroticks{(t.ns() + g - 1) / g};
}

}  // namespace coeff::units
