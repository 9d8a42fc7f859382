// Statistics accumulators used by the metrics and benchmark layers.
#pragma once

#include <cstddef>

#include "sim/time.hpp"

namespace coeff::sim {

/// Streaming moments (Welford): count, mean, variance, min, max. O(1)
/// space; numerically stable for long runs.
class StreamingStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  ///< population variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel Welford).
  void merge(const StreamingStats& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Convenience: accumulate Time samples as milliseconds (moments only).
class LatencyStats {
 public:
  void add(Time t) { moments_.add(t.as_ms()); }
  [[nodiscard]] double mean_ms() const { return moments_.mean(); }
  [[nodiscard]] double max_ms() const { return moments_.max(); }
  [[nodiscard]] std::size_t count() const { return moments_.count(); }

 private:
  StreamingStats moments_;
};

}  // namespace coeff::sim
