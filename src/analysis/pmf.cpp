#include "analysis/pmf.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace coeff::analysis {

Pmf::Pmf(sim::Time quantum, std::size_t max_bins) : quantum_(quantum) {
  if (quantum <= sim::Time::zero()) {
    throw std::invalid_argument("Pmf: quantum must be positive");
  }
  if (max_bins == 0) {
    throw std::invalid_argument("Pmf: max_bins must be positive");
  }
  bins_.assign(max_bins, 0.0);
}

std::size_t Pmf::bin_of(sim::Time t) const {
  if (t < sim::Time::zero()) {
    throw std::invalid_argument("Pmf: negative delay");
  }
  // Round up: bin i carries "completes within i quanta", so pushing
  // mass later keeps every tail an upper bound.
  const std::int64_t q = quantum_.ns();
  const std::int64_t idx = (t.ns() + q - 1) / q;
  return static_cast<std::size_t>(idx);
}

Pmf Pmf::delta(sim::Time t, sim::Time quantum, std::size_t max_bins,
               double mass) {
  Pmf out(quantum, max_bins);
  out.add_mass(t, mass);
  return out;
}

void Pmf::add_mass(sim::Time t, double mass) {
  const std::size_t idx = bin_of(t);
  if (idx >= bins_.size()) {
    overflow_ += mass;
  } else {
    bins_[idx] += mass;
  }
}

Pmf Pmf::convolve(const Pmf& other) const {
  if (quantum_ != other.quantum_) {
    throw std::invalid_argument("Pmf: convolve quantum mismatch");
  }
  const std::size_t n = std::max(bins_.size(), other.bins_.size());
  Pmf out(quantum_, n);
  // Only nonzero bins contribute, so other's are collected once. Each
  // output bin, the overflow and in_b take their additions in (i, j)
  // ascending order, so the result is bit for bit that of a double loop
  // over every bin: the zeros that loop adds are +0.0, which moves no sum.
  std::vector<std::pair<std::size_t, double>> loaded;
  double in_b = 0.0;
  for (std::size_t j = 0; j < other.bins_.size(); ++j) {
    const double b = other.bins_[j];
    if (b == 0.0) continue;
    loaded.emplace_back(j, b);
    in_b += b;
  }
  double in_a = 0.0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const double a = bins_[i];
    if (a == 0.0) continue;
    in_a += a;
    for (const auto& [j, b] : loaded) {
      const std::size_t k = i + j;
      if (k >= n) {
        out.overflow_ += a * b;
      } else {
        out.bins_[k] += a * b;
      }
    }
  }
  // Overflow is absorbing: an overflowed operand overflows the sum no
  // matter what the other contributes.
  out.overflow_ += overflow_ * (in_b + other.overflow_) + other.overflow_ * in_a;
  return out;
}

void Pmf::accumulate(const Pmf& other, double weight) {
  if (quantum_ != other.quantum_) {
    throw std::invalid_argument("Pmf: accumulate quantum mismatch");
  }
  const std::size_t n = std::min(bins_.size(), other.bins_.size());
  for (std::size_t i = 0; i < n; ++i) bins_[i] += weight * other.bins_[i];
  for (std::size_t i = n; i < other.bins_.size(); ++i) {
    overflow_ += weight * other.bins_[i];
  }
  overflow_ += weight * other.overflow_;
}

void Pmf::accumulate_shifted(const Pmf& other, sim::Time dt, double weight) {
  if (quantum_ != other.quantum_) {
    throw std::invalid_argument("Pmf: accumulate quantum mismatch");
  }
  const std::size_t shift = bin_of(dt);
  // The delayed copy lives on other's grid: its bins past that grid join
  // its overflow, summed in bin order before other's own overflow.
  const std::size_t kept =
      other.bins_.size() - std::min(other.bins_.size(), shift);
  double moved_overflow = 0.0;
  for (std::size_t i = kept; i < other.bins_.size(); ++i) {
    moved_overflow += other.bins_[i];
  }
  moved_overflow += other.overflow_;
  // Bin i of other lands at i + shift: here while that is on this grid,
  // in this overflow past it. Bins the copy leaves zero would add +0.0.
  for (std::size_t i = 0; i < kept; ++i) {
    const double m = other.bins_[i];
    if (m == 0.0) continue;
    const std::size_t k = i + shift;
    if (k < bins_.size()) {
      bins_[k] += weight * m;
    } else {
      overflow_ += weight * m;
    }
  }
  overflow_ += weight * moved_overflow;
}

double Pmf::tail_above(sim::Time t) const {
  double tail = overflow_;
  if (t < sim::Time::zero()) t = sim::Time::zero();
  // Bin i sits at grid value i*q; strictly-greater comparison.
  const std::int64_t q = quantum_.ns();
  const std::size_t first =
      static_cast<std::size_t>(t.ns() / q) + 1;  // first bin with i*q > t
  for (std::size_t i = first; i < bins_.size(); ++i) tail += bins_[i];
  return tail;
}

sim::Time Pmf::quantile(double p) const {
  double cum = 0.0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    cum += bins_[i];
    if (cum >= p) return quantum_ * static_cast<std::int64_t>(i);
  }
  return sim::Time::max();
}

double Pmf::normalize() {
  const double total = total_mass();
  if (total <= 0.0) return 1.0;
  const double inv = 1.0 / total;
  for (double& b : bins_) b *= inv;
  overflow_ *= inv;
  return inv;
}

double Pmf::total_mass() const {
  double total = overflow_;
  for (const double b : bins_) total += b;
  return total;
}

Pmf with_cycle_slips(const Pmf& first_opportunity, double p_slip,
                     sim::Time cycle, int max_slips) {
  if (!(p_slip >= 0.0) || p_slip > 1.0) {
    throw std::invalid_argument("with_cycle_slips: p_slip outside [0, 1]");
  }
  if (max_slips < 0) {
    throw std::invalid_argument("with_cycle_slips: negative max_slips");
  }
  if (cycle < sim::Time::zero()) {
    throw std::invalid_argument("with_cycle_slips: negative cycle");
  }
  Pmf out(first_opportunity.quantum(), first_opportunity.max_bins());
  // p_pow tracks p_slip^j; the leftover after the truncated geometric sum
  // is exactly p_slip^(max_slips+1), routed to the overflow bucket so the
  // composition conserves mass.
  double p_pow = 1.0;
  for (int j = 0; j <= max_slips; ++j) {
    const double weight = (1.0 - p_slip) * p_pow;
    if (weight > 0.0) {
      out.accumulate_shifted(first_opportunity, cycle * j, weight);
    }
    p_pow *= p_slip;
    if (p_pow == 0.0 && j < max_slips) break;
  }
  out.add_overflow(p_pow * first_opportunity.total_mass());
  return out;
}

}  // namespace coeff::analysis
