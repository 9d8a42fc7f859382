// Theorem-1 reliability analysis and the differentiated-retransmission
// solver (§III-E).
//
// Given a message set, a BER and a time unit u, the probability that
// every deadline-relevant instance gets through is
//     R = prod_z (1 - p_z^{k_z+1})^{u / T_z}.
// CoEfficient's "differentiated retransmission" picks the smallest (in
// total added bus load) vector k that achieves R >= rho, instead of
// retransmitting everything (FSPEC's best effort).
#pragma once

#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "sim/time.hpp"

namespace coeff::fault {

/// Retransmission plan: k_z per message, aligned with the set's order.
struct RetransmissionPlan {
  std::vector<int> copies;  ///< k_z (extra copies beyond the first TX)
  double log_reliability = 0.0;  ///< achieved log R
  double added_load_bits_per_second = 0.0;  ///< sum k_z * W_z / T_z
  /// log of the rho the solver aimed at (0 when rho was disabled).
  double target_log_reliability = 0.0;
  /// True when rho was unreachable within max_copies_per_message and
  /// this is the best achievable plan instead (graceful degradation).
  bool degraded = false;

  [[nodiscard]] double reliability() const;
  [[nodiscard]] int total_copies() const;
  [[nodiscard]] int max_copies() const;
};

/// log R for the plan `copies` (may be shorter than the set; missing
/// entries count as 0 retransmissions).
[[nodiscard]] double log_set_reliability(const net::MessageSet& set,
                                         const std::vector<int>& copies,
                                         double ber, sim::Time u);

/// Convenience: R itself (may underflow to 0 for hopeless plans).
[[nodiscard]] double set_reliability(const net::MessageSet& set,
                                     const std::vector<int>& copies,
                                     double ber, sim::Time u);

struct SolverOptions {
  double ber = 1e-7;
  double rho = 0.0;          ///< target reliability over `u`
  sim::Time u = sim::seconds(3600);
  int max_copies_per_message = 8;  ///< per-message copy bound
};

/// Differentiated solver: greedy marginal-gain-per-added-load ascent.
/// Starts at k = 0 and, while log R < log rho, increments the k_z with
/// the best (delta log R) / (added load) ratio. If the goal is
/// unreachable within max_copies_per_message, returns the best
/// achievable plan flagged `degraded`. Invalid options (ber outside [0,1],
/// rho >= 1, non-positive u, negative copy bound) always throw
/// std::invalid_argument naming the offending option and value.
[[nodiscard]] RetransmissionPlan solve_differentiated(
    const net::MessageSet& set, const SolverOptions& opt);

/// Uniform baseline (ablation): the smallest single k applied to every
/// message that achieves rho; degrades to k = max_copies_per_message
/// when rho is unreachable.
[[nodiscard]] RetransmissionPlan solve_uniform(const net::MessageSet& set,
                                               const SolverOptions& opt);

/// Rounds solver for schemes that transmit every instance in rounds of
/// `copies_per_round` simultaneous copies (e.g. FSPEC's dual-channel
/// mirror: 2 copies per round): smallest R >= 1 such that
///   prod_z (1 - p_z^{R * copies_per_round})^{u/T_z} >= rho.
/// Degrades to the largest round count within the copy bound when rho
/// is unreachable.
[[nodiscard]] int solve_uniform_rounds(const net::MessageSet& set,
                                       const SolverOptions& opt,
                                       int copies_per_round);

}  // namespace coeff::fault
