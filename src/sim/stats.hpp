// Statistics accumulators used by the metrics and benchmark layers.
#pragma once

#include <cstddef>

#include "sim/time.hpp"

namespace coeff::sim {

/// Count and running mean of Time samples, in milliseconds. O(1) space;
/// the incremental mean (Welford's recurrence) stays stable for long runs.
class LatencyStats {
 public:
  void add(Time t) {
    ++n_;
    mean_ += (t.as_ms() - mean_) / static_cast<double>(n_);
  }
  [[nodiscard]] double mean_ms() const { return mean_; }
  [[nodiscard]] std::size_t count() const { return n_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
};

}  // namespace coeff::sim
