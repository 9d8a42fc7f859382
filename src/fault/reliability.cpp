#include "fault/reliability.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "fault/ber.hpp"

namespace coeff::fault {

double RetransmissionPlan::reliability() const {
  return std::exp(log_reliability);
}

int RetransmissionPlan::total_copies() const {
  int n = 0;
  for (int k : copies) n += k;
  return n;
}

int RetransmissionPlan::max_copies() const {
  int n = 0;
  for (int k : copies) n = std::max(n, k);
  return n;
}

double log_set_reliability(const net::MessageSet& set,
                           const std::vector<int>& copies, double ber,
                           sim::Time u) {
  double log_r = 0.0;
  const auto& msgs = set.messages();
  for (std::size_t z = 0; z < msgs.size(); ++z) {
    const double p = frame_failure_probability(msgs[z].size_bits, ber);
    const int k = z < copies.size() ? copies[z] : 0;
    const double occurrences = u.as_seconds() / msgs[z].period.as_seconds();
    log_r += log_message_reliability(p, k, occurrences);
  }
  return log_r;
}

double set_reliability(const net::MessageSet& set,
                       const std::vector<int>& copies, double ber,
                       sim::Time u) {
  return std::exp(log_set_reliability(set, copies, ber, u));
}

namespace {

[[noreturn]] void bad_option(const char* option, double value,
                             const char* constraint) {
  char msg[160];
  std::snprintf(msg, sizeof msg, "solver: SolverOptions.%s = %g %s", option,
                value, constraint);
  throw std::invalid_argument(msg);
}

void check_options(const SolverOptions& opt) {
  // Negated comparisons so NaN is rejected too; each message names the
  // offending option and echoes its value.
  if (!(opt.ber >= 0.0 && opt.ber <= 1.0)) {
    bad_option("ber", opt.ber, "must be in [0, 1]");
  }
  if (!(opt.rho >= 0.0 && opt.rho < 1.0)) {
    bad_option("rho", opt.rho, "must be in [0, 1)");
  }
  if (opt.u <= sim::Time::zero()) {
    bad_option("u", opt.u.as_seconds(), "seconds: must be positive");
  }
  if (opt.max_copies_per_message < 0) {
    bad_option("max_copies_per_message", opt.max_copies_per_message,
               "must be >= 0");
  }
}

}  // namespace

RetransmissionPlan solve_differentiated(const net::MessageSet& set,
                                        const SolverOptions& opt) {
  check_options(opt);
  const auto& msgs = set.messages();
  const std::size_t n = msgs.size();

  std::vector<double> p(n);         // per-message failure probability
  std::vector<double> occ(n);       // u / T_z
  std::vector<double> load(n);      // W_z / T_z, bits per second
  for (std::size_t z = 0; z < n; ++z) {
    p[z] = frame_failure_probability(msgs[z].size_bits, opt.ber);
    occ[z] = opt.u.as_seconds() / msgs[z].period.as_seconds();
    load[z] = static_cast<double>(msgs[z].size_bits) /
              msgs[z].period.as_seconds();
  }

  RetransmissionPlan plan;
  plan.copies.assign(n, 0);
  const double target = opt.rho > 0.0 ? std::log(opt.rho) : -1e300;
  plan.target_log_reliability = opt.rho > 0.0 ? target : 0.0;

  std::vector<double> term(n);  // current log term per message
  double log_r = 0.0;
  for (std::size_t z = 0; z < n; ++z) {
    term[z] = log_message_reliability(p[z], 0, occ[z]);
    log_r += term[z];
  }

  while (log_r < target) {
    // Pick the increment with the best reliability gain per added load.
    double best_ratio = -1.0;
    std::size_t best = n;
    double best_new_term = 0.0;
    for (std::size_t z = 0; z < n; ++z) {
      if (plan.copies[z] >= opt.max_copies_per_message) continue;
      if (p[z] <= 0.0) continue;  // already perfect, no gain possible
      const double new_term =
          log_message_reliability(p[z], plan.copies[z] + 1, occ[z]);
      const double gain = new_term - term[z];
      if (gain <= 0.0) continue;
      const double ratio = gain / load[z];
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = z;
        best_new_term = new_term;
      }
    }
    if (best == n) {
      // Graceful degradation: every message is at its bound (or gains
      // nothing); hand back the best achievable plan, flagged.
      plan.degraded = true;
      break;
    }
    log_r += best_new_term - term[best];
    term[best] = best_new_term;
    ++plan.copies[best];
    plan.added_load_bits_per_second += load[best];
  }

  plan.log_reliability = log_r;
  return plan;
}

RetransmissionPlan solve_uniform(const net::MessageSet& set,
                                 const SolverOptions& opt) {
  check_options(opt);
  const std::size_t n = set.size();
  const double target = opt.rho > 0.0 ? std::log(opt.rho) : -1e300;
  // check_options bounds the copy bound below by 0, so the loop returns
  // at k = max_copies_per_message at the latest (degraded).
  for (int k = 0;; ++k) {
    std::vector<int> copies(n, k);
    const double log_r = log_set_reliability(set, copies, opt.ber, opt.u);
    if (log_r >= target || k == opt.max_copies_per_message) {
      RetransmissionPlan plan;
      plan.copies = std::move(copies);
      plan.log_reliability = log_r;
      plan.target_log_reliability = opt.rho > 0.0 ? target : 0.0;
      plan.degraded = log_r < target;
      for (const auto& m : set.messages()) {
        plan.added_load_bits_per_second +=
            k * static_cast<double>(m.size_bits) / m.period.as_seconds();
      }
      return plan;
    }
  }
}

int solve_uniform_rounds(const net::MessageSet& set, const SolverOptions& opt,
                         int copies_per_round) {
  check_options(opt);
  if (copies_per_round < 1) {
    throw std::invalid_argument("solve_uniform_rounds: need >= 1 copy/round");
  }
  const double target = opt.rho > 0.0 ? std::log(opt.rho) : -1e300;
  int last_rounds = 1;
  for (int rounds = 1;
       (rounds - 1) * copies_per_round <= opt.max_copies_per_message;
       ++rounds) {
    // k = total copies minus the first transmission.
    std::vector<int> copies(set.size(), rounds * copies_per_round - 1);
    if (log_set_reliability(set, copies, opt.ber, opt.u) >= target) {
      return rounds;
    }
    last_rounds = rounds;
  }
  return last_rounds;  // best within the bound
}

}  // namespace coeff::fault
