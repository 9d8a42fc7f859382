// Deterministic pseudo-random number generation for simulations.
//
// xoshiro256** seeded through SplitMix64, per the generators' reference
// implementations (Blackman & Vigna). We avoid std::mt19937 so results
// are identical across standard-library implementations, and we avoid
// std::*_distribution for the same reason.
#pragma once

#include <array>
#include <cstdint>

namespace coeff::sim {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit generator.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform over the full 64-bit range.
  std::uint64_t next_u64();

  /// Uniform in [0, bound). Precondition: bound > 0. Uses rejection
  /// sampling (Lemire) to avoid modulo bias.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in the closed range [lo, hi].
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1) with 53 bits of entropy.
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  bool bernoulli(double p);

  /// Exponentially distributed value with the given rate (mean 1/rate).
  double exponential(double rate);

  /// Split off an independent child stream (e.g. one per node) so that
  /// adding draws to one component never perturbs another.
  Rng split();

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Philox4x32-10: counter-based generator (Salmon et al., SC'11).
///
/// Unlike the sequential generators above, output depends only on the
/// (key, counter) pair, so any point in the stream can be evaluated in
/// any order — the property the Cluster's cycle walk needs to batch
/// fault verdicts keyed by (seed, cycle, slot, channel) without
/// replaying every earlier draw. Stateless and cheap to construct.
class Philox4x32 {
 public:
  using Block = std::array<std::uint32_t, 4>;

  constexpr explicit Philox4x32(std::uint64_t key)
      : k0_(static_cast<std::uint32_t>(key)),
        k1_(static_cast<std::uint32_t>(key >> 32)) {}

  /// The 128-bit block for counter (c0, c1) after 10 rounds.
  [[nodiscard]] Block block(std::uint64_t c0, std::uint64_t c1) const;

  /// First 64 bits of the block — enough for one verdict draw.
  [[nodiscard]] std::uint64_t next_u64(std::uint64_t c0,
                                       std::uint64_t c1) const {
    const Block b = block(c0, c1);
    return (static_cast<std::uint64_t>(b[1]) << 32) | b[0];
  }

  /// Uniform double in [0, 1) with 53 bits, matching Rng::uniform01's
  /// bit-discipline ((x >> 11) * 2^-53).
  [[nodiscard]] double uniform01(std::uint64_t c0, std::uint64_t c1) const {
    return static_cast<double>(next_u64(c0, c1) >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  [[nodiscard]] bool bernoulli(double p, std::uint64_t c0,
                               std::uint64_t c1) const {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01(c0, c1) < p;
  }

 private:
  std::uint32_t k0_;
  std::uint32_t k1_;
};

}  // namespace coeff::sim
