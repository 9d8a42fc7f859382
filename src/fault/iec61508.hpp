// IEC 61508 safety integrity levels (§III-E).
//
// For continuous/high-demand operation the standard bounds the
// probability of a dangerous failure per hour (PFH). We map each SIL to
// the upper bound of its PFH band and derive the reliability goal
// rho = 1 - gamma over the time unit u.
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace coeff::fault {

enum class Sil : std::uint8_t { kSil1 = 1, kSil2 = 2, kSil3 = 3, kSil4 = 4 };

/// Maximum tolerated probability of system failure per hour (the upper
/// bound of the SIL's PFH band): SIL1 1e-5 .. SIL4 1e-9.
[[nodiscard]] double max_failure_probability_per_hour(Sil sil);

/// The reliability goal rho = 1 - gamma for a time unit `u`, scaling the
/// hourly budget linearly (gamma << 1, so linear scaling is exact to
/// first order and conservative).
[[nodiscard]] double reliability_goal(Sil sil, sim::Time u);

}  // namespace coeff::fault
