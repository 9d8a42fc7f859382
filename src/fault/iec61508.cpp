#include "fault/iec61508.hpp"

#include <stdexcept>

namespace coeff::fault {

double max_failure_probability_per_hour(Sil sil) {
  switch (sil) {
    case Sil::kSil1:
      return 1e-5;
    case Sil::kSil2:
      return 1e-6;
    case Sil::kSil3:
      return 1e-7;
    case Sil::kSil4:
      return 1e-9;
  }
  throw std::invalid_argument("max_failure_probability_per_hour: bad SIL");
}

double reliability_goal(Sil sil, sim::Time u) {
  if (u <= sim::Time::zero()) {
    throw std::invalid_argument("reliability_goal: non-positive time unit");
  }
  const double hours = u.as_seconds() / 3600.0;
  const double gamma = max_failure_probability_per_hour(sil) * hours;
  return gamma >= 1.0 ? 0.0 : 1.0 - gamma;
}

}  // namespace coeff::fault
