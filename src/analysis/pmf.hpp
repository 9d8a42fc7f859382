// Discrete probability mass functions over quantized delays — the
// convolution core of the probabilistic WCRT verifier (DESIGN.md §14).
//
// A Pmf holds mass on the grid {0, q, 2q, ...} up to max_bins bins plus
// one explicit overflow bucket ("later than the grid covers, possibly
// never"). Two deliberate asymmetries make every downstream bound safe:
//
//  * Quantization rounds UP (a delay t lands in bin ceil(t/q)), so a
//    quantized distribution is stochastically >= the real one and any
//    deadline-miss tail computed from it is an upper bound.
//  * Truncation moves mass to the overflow bucket — it is never
//    dropped, so total_mass() is exact (up to floating point) and the
//    overflow bucket counts toward every tail query.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace coeff::analysis {

class Pmf {
 public:
  /// Empty (all-zero) Pmf on the grid {0, q, ...} with `max_bins` bins.
  /// Throws std::invalid_argument on a non-positive quantum or zero
  /// bins.
  Pmf(sim::Time quantum, std::size_t max_bins);

  /// Point mass `mass` at delay `t` (rounded up to the grid).
  [[nodiscard]] static Pmf delta(sim::Time t, sim::Time quantum,
                                 std::size_t max_bins, double mass = 1.0);

  /// Add `mass` at delay `t`; negative t throws, t beyond the grid goes
  /// to the overflow bucket.
  void add_mass(sim::Time t, double mass);

  /// Add mass directly to the overflow bucket (events that never
  /// complete, e.g. all retransmissions exhausted).
  void add_overflow(double mass) { overflow_ += mass; }

  /// Sum of independent delays: discrete convolution. Quanta must
  /// match. Overflow composes absorbingly: any term with an overflowed
  /// operand, and any in-range product landing beyond the grid, lands
  /// in the result's overflow bucket. Costs O(nonzero bins of this *
  /// nonzero bins of other) plus one pass over each grid.
  [[nodiscard]] Pmf convolve(const Pmf& other) const;

  /// Mixture accumulation: this += weight * other (same quantum).
  void accumulate(const Pmf& other, double weight);

  /// Delayed mixture accumulation: this += weight * (other's X + dt),
  /// with dt >= 0 rounded up to the grid. The delayed copy keeps other's
  /// grid, so its mass pushed past that grid lands in this overflow
  /// bucket. Bit for bit what accumulating a materialized shifted copy
  /// gives, without the copy: it visits only other's nonzero bins.
  /// Throws std::invalid_argument on a quantum mismatch or negative dt.
  void accumulate_shifted(const Pmf& other, sim::Time dt, double weight);

  /// P(X > t): mass in bins whose grid value exceeds `t`, plus the
  /// overflow bucket. Because quantization rounded up, this upper-bounds
  /// the true exceedance probability at any real t >= 0.
  [[nodiscard]] double tail_above(sim::Time t) const;

  /// Smallest grid value v with P(X <= v) >= p, or Time::max() if the
  /// quantile sits in the overflow bucket.
  [[nodiscard]] sim::Time quantile(double p) const;

  /// Scale all mass so total_mass() == 1. No-op on a zero Pmf. Returns
  /// the factor applied (1/previous total).
  double normalize();

  [[nodiscard]] double total_mass() const;
  [[nodiscard]] double overflow() const { return overflow_; }
  [[nodiscard]] sim::Time quantum() const { return quantum_; }
  [[nodiscard]] std::size_t max_bins() const { return bins_.size(); }
  [[nodiscard]] const std::vector<double>& bins() const { return bins_; }

 private:
  [[nodiscard]] std::size_t bin_of(sim::Time t) const;

  sim::Time quantum_;
  std::vector<double> bins_;
  double overflow_ = 0.0;
};

/// Geometric cycle-slip composition (DESIGN.md §15): a transmission that
/// misses its dynamic-segment opportunity slips a whole communication
/// cycle and retries. Given the first-opportunity delay distribution and
/// a per-cycle slip probability, returns
///
///   sum_{j=0..max_slips} (1-p_slip) * p_slip^j * (first delayed j*cycle)
///   + p_slip^(max_slips+1) * total_mass(first)  -> overflow bucket
///
/// The truncated geometric tail goes to the overflow bucket, never
/// dropped, so total mass is conserved and every tail query stays an
/// upper bound. Throws std::invalid_argument when p_slip is outside
/// [0, 1], max_slips is negative, or cycle is negative.
[[nodiscard]] Pmf with_cycle_slips(const Pmf& first_opportunity, double p_slip,
                                   sim::Time cycle, int max_slips);

}  // namespace coeff::analysis
