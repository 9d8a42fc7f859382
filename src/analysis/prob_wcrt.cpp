#include "analysis/prob_wcrt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sched/periodic_schedule.hpp"
#include "sched/task.hpp"

namespace coeff::analysis {

namespace {

/// log(1 - p) with the p >= 1 ("certain miss") edge pinned to -inf.
double log1m(double p) {
  if (p >= 1.0) return -HUGE_VAL;
  if (p <= 0.0) return 0.0;
  return std::log1p(-p);
}

/// Guaranteed stealable wire service per communication cycle: the
/// static set as a wire-speed fixed-priority processor, at its
/// full-schedule idle floor over any one cycle. No scheduler runs this
/// model; it stands in for the idle (slot, channel) pairs CoEfficient's
/// walk steals. 0 when the schedule leaves no guaranteed idle,
/// or, as a pessimistic fallback, when the set has no exact schedule
/// (invalid, or a hyperperiod past one hour). Anything else, such as
/// running out of memory, propagates to the caller.
sim::Time guaranteed_service(const ProbWcrtInput& input) {
  if (input.statics->empty()) return input.cluster->cycle_duration();
  try {
    return sched::min_idle_in_window(
        sched::wire_task_set(*input.statics, *input.cluster),
        input.cluster->cycle_duration());
  } catch (const std::domain_error&) {
    return sim::Time::zero();
  } catch (const std::invalid_argument&) {
    return sim::Time::zero();
  }
}

}  // namespace

double chain_fail(fault::AnalyticFailure& af, ProbRetxModel d,
                  std::int64_t bits, int n) {
  switch (d) {
    case ProbRetxModel::kPlannedSerial:
      return af.consecutive_failures(bits, n);
    case ProbRetxModel::kMirroredRounds:
    case ProbRetxModel::kMirroredSingle:
      return af.consecutive_pair_failures(bits, n);
  }
  return 1.0;
}

double indep_fail(fault::AnalyticFailure& af, ProbRetxModel d,
                  std::int64_t bits, int n) {
  switch (d) {
    case ProbRetxModel::kPlannedSerial:
      return af.independent_failures(bits, n);
    case ProbRetxModel::kMirroredRounds:
    case ProbRetxModel::kMirroredSingle:
      return af.independent_pair_failures(bits, n);
  }
  return 1.0;
}

double theorem1_term(double p_miss, sim::Time period, sim::Time u) {
  const double occ =
      static_cast<double>(u.ns()) / static_cast<double>(period.ns());
  return occ * log1m(p_miss);
}

ReliabilityTarget::ReliabilityTarget(const EnvelopeInput& input)
    : log_target(input.plan != nullptr &&
                         input.plan->target_log_reliability != 0.0
                     ? input.plan->target_log_reliability
                     : (input.rho > 0.0 ? std::log(input.rho) : 0.0)),
      has_target(log_target != 0.0 || input.rho > 0.0),
      tol(1e-9 * std::max(1.0, std::fabs(log_target))),
      plan_claims_met(input.plan == nullptr || !input.plan->degraded) {}

void fold_class(std::vector<ClassProb>& classes, const ClassProb& c) {
  auto it = std::lower_bound(
      classes.begin(), classes.end(), c.sae_class,
      [](const ClassProb& a, char cls) { return a.sae_class < cls; });
  if (it == classes.end() || it->sae_class != c.sae_class) {
    it = classes.insert(it, ClassProb{c.sae_class});
  }
  it->messages += c.messages;
  it->worst_p_miss_upper =
      std::max(it->worst_p_miss_upper, c.worst_p_miss_upper);
  it->worst_p_miss_lower =
      std::max(it->worst_p_miss_lower, c.worst_p_miss_lower);
}

void SetEnvelope::fold(const MessageEnvelope& m, sim::Time u) {
  log_reliability_upper += theorem1_term(m.p_miss_upper, m.period, u);
  log_reliability_lower += theorem1_term(m.p_miss_lower, m.period, u);
  fold_class(classes, {m.sae_class, 1, m.p_miss_upper, m.p_miss_lower});
}

const char* to_string(ProbRetxModel d) {
  switch (d) {
    case ProbRetxModel::kPlannedSerial:
      return "planned-serial";
    case ProbRetxModel::kMirroredRounds:
      return "mirrored-rounds";
    case ProbRetxModel::kMirroredSingle:
      return "mirrored-single";
  }
  return "?";
}

char sae_class_of(sim::Time deadline) {
  if (deadline <= sim::millis(5)) return 'A';
  if (deadline <= sim::millis(10)) return 'B';
  if (deadline <= sim::millis(20)) return 'C';
  if (deadline <= sim::millis(50)) return 'D';
  return 'E';
}

ProbWcrtResult analyze_prob_wcrt(const ProbWcrtInput& input) {
  if (input.cluster == nullptr || input.statics == nullptr) {
    throw std::invalid_argument("analyze_prob_wcrt: null cluster or statics");
  }
  if (input.discipline == ProbRetxModel::kMirroredRounds && input.rounds < 1) {
    throw std::invalid_argument("analyze_prob_wcrt: rounds must be >= 1");
  }
  const ProbWcrtOptions& opt = input.options;
  const sim::Time cycle = input.cluster->cycle_duration();
  fault::AnalyticFailure af(input.fault_model);

  ProbWcrtResult result;
  result.interference = Pmf(opt.quantum, opt.max_bins);
  result.interference.add_mass(sim::Time::zero(), 1.0);

  // Contention model (planned-serial only): per cycle, each *other*
  // planned message independently queues one slot of retransmission
  // work with probability q_y = p_y * min(1, cycle / T_y); the queue
  // drains at the schedule's guaranteed idle service per cycle.
  Pmf delay(opt.quantum, opt.max_bins);
  delay.add_mass(sim::Time::zero(), 1.0);
  if (input.discipline == ProbRetxModel::kPlannedSerial) {
    result.guaranteed_service_per_cycle = guaranteed_service(input);
    const sim::Time slot = input.cluster->static_slot_duration();
    for (std::size_t z = 0; z < input.statics->size(); ++z) {
      const net::Message& m = (*input.statics)[z];
      const int copies = input.plan != nullptr && z < input.plan->copies.size()
                             ? input.plan->copies[z]
                             : 0;
      if (copies <= 0) continue;
      const double rate = std::min(
          1.0, static_cast<double>(cycle.ns()) / static_cast<double>(m.period.ns()));
      const double q = af.attempt(m.size_bits) * rate;
      if (q <= 0.0) continue;
      Pmf bern(opt.quantum, opt.max_bins);
      bern.add_mass(sim::Time::zero(), 1.0 - q);
      bern.add_mass(slot, q);
      result.interference = result.interference.convolve(bern);
    }
    // Backlog b waits ceil(b / service) whole cycles before our copy is
    // guaranteed a slot; no guaranteed service pushes any backlog to
    // "may never land" (overflow).
    const sim::Time service = result.guaranteed_service_per_cycle;
    Pmf mapped(opt.quantum, opt.max_bins);
    const std::vector<double>& bins = result.interference.bins();
    for (std::size_t i = 0; i < bins.size(); ++i) {
      if (bins[i] == 0.0) continue;
      if (i == 0) {
        mapped.add_mass(sim::Time::zero(), bins[i]);
        continue;
      }
      if (service <= sim::Time::zero()) {
        mapped.add_overflow(bins[i]);
        continue;
      }
      const sim::Time backlog = opt.quantum * static_cast<std::int64_t>(i);
      const std::int64_t cycles = (backlog + service - sim::nanos(1)) / service;
      mapped.add_mass(cycle * cycles, bins[i]);
    }
    mapped.add_overflow(result.interference.overflow());
    delay = std::move(mapped);

    // Copy crediting gate: each stolen (slot,channel) pair costs one
    // whole static slot of the guaranteed idle, and an instance's k_z
    // copies must all land inside its min(T, D) window. When the
    // amortized demand exceeds the guaranteed service floor, the walk
    // may drop copies (a copy whose deadline passes with no fitting
    // slack is dropped) — no analytic delivery guarantee exists, so the
    // upper envelope credits only the owned primary slot.
    double demand_ns = 0.0;
    for (std::size_t z = 0; z < input.statics->size(); ++z) {
      const net::Message& m = (*input.statics)[z];
      const int copies = input.plan != nullptr && z < input.plan->copies.size()
                             ? std::max(0, input.plan->copies[z])
                             : 0;
      if (copies <= 0) continue;
      const std::int64_t window_cycles =
          std::max<std::int64_t>(1, std::min(m.period, m.deadline) / cycle);
      demand_ns += static_cast<double>(slot.ns()) * copies /
                   static_cast<double>(window_cycles);
    }
    result.copy_demand_per_cycle =
        sim::nanos(static_cast<std::int64_t>(std::ceil(demand_ns)));
    result.copies_credited =
        (input.plan == nullptr || !input.plan->degraded) &&
        result.copy_demand_per_cycle <= result.guaranteed_service_per_cycle;
  } else {
    result.guaranteed_service_per_cycle = sim::Time::zero();
    result.copy_demand_per_cycle = sim::Time::zero();
    result.copies_credited = true;
  }

  for (std::size_t z = 0; z < input.statics->size(); ++z) {
    const net::Message& m = (*input.statics)[z];
    MessageProb mp;
    mp.message_id = m.id;
    mp.name = m.name;
    mp.deadline = m.deadline;
    mp.period = m.period;
    mp.sae_class = sae_class_of(m.deadline);
    mp.p_attempt = af.attempt(m.size_bits);
    switch (input.discipline) {
      case ProbRetxModel::kPlannedSerial:
        mp.planned_attempts =
            1 + (input.plan != nullptr && z < input.plan->copies.size()
                     ? std::max(0, input.plan->copies[z])
                     : 0);
        break;
      case ProbRetxModel::kMirroredRounds:
        mp.planned_attempts = std::max(1, input.rounds);
        break;
      case ProbRetxModel::kMirroredSingle:
        mp.planned_attempts = 1;
        break;
    }

    // r0 + primary liveness from the placement. A message the table
    // gives no slot never sends its primary: FSPEC and HOSA drop the
    // instance at release, CoEfficient cancels the primary and keeps
    // only its copies. Releases are staged at cycle start, so a
    // placement whose transmitting occurrence falls in (or past) the
    // cycle that stages the *next* release is overwritten before its
    // slot fires: the primary deterministically never transmits, even
    // though the table's latency check passed. The condition is
    // base_cycle - floor(offset/cycle) >= period/cycle — in practice
    // period == cycle with a boundary-crossing placement. Without a
    // table, r0 is bounded by one cycle.
    sim::Time r0 = cycle;
    const sched::SlotAssignment* assign =
        input.table != nullptr ? input.table->assignment_of(m.id) : nullptr;
    mp.primary_live = input.table == nullptr || assign != nullptr;
    if (assign != nullptr) {
      r0 = assign->latency;
      const std::int64_t period_cycles =
          std::max<std::int64_t>(1, m.period / cycle);
      const std::int64_t release_cycle = m.offset / cycle;
      mp.primary_live =
          assign->base_cycle.value() - release_cycle < period_cycles;
    }

    // Response distribution at the pessimistic envelope edge: the
    // primary (when live) lands deterministically at r0 in its owned
    // slot; credited slack-stolen copy j lands by the end of the j-th
    // cycle after release, pushed further by the contention delay;
    // attempts chain at worst-case correlation. Mass with no credited
    // attempt left goes to overflow ("may never land").
    Pmf response(opt.quantum, opt.max_bins);
    mp.timely_attempts = 0;
    double f_prev = 1.0;  // P(first w wire attempts all failed), w = 0
    int wire = 0;
    const auto attempt = [&](sim::Time base, bool contended) {
      ++wire;
      const double f_next = chain_fail(af, input.discipline, m.size_bits, wire);
      const double mass = std::max(0.0, f_prev - f_next);
      if (contended) {
        response.accumulate_shifted(delay, base, mass);
      } else {
        response.add_mass(base, mass);
      }
      if (base <= m.deadline) ++mp.timely_attempts;
      f_prev = f_next;
    };
    if (input.discipline == ProbRetxModel::kPlannedSerial) {
      if (mp.primary_live) attempt(r0, /*contended=*/false);
      if (result.copies_credited) {
        for (int j = 1; j < mp.planned_attempts; ++j) {
          attempt(cycle * j, /*contended=*/true);
        }
      }
    } else if (mp.primary_live) {
      // Mirrored rounds ride the placement's consecutive occurrences —
      // a dead primary placement kills every round with it.
      for (int i = 0; i < mp.planned_attempts; ++i) {
        attempt(r0 + cycle * i, /*contended=*/false);
      }
    }
    response.add_overflow(f_prev);  // every credited attempt failed

    mp.p_miss_upper = std::min(1.0, response.tail_above(m.deadline));
    const double indep =
        indep_fail(af, input.discipline, m.size_bits, mp.planned_attempts);
    // The optimistic edge assumes independent attempts that all land in
    // time; clamp in case an oscillating channel makes the chained
    // probability the smaller one.
    mp.p_miss_lower = std::min(indep, mp.p_miss_upper);
    mp.response_p999 = response.quantile(0.999);
    result.messages.push_back(std::move(mp));
  }
  for (const MessageProb& mp : result.messages) result.fold(mp, input.u);
  return result;
}

Report lint_prob(const ProbWcrtInput& input, const ProbWcrtResult& result) {
  Report report;
  CappedReport out(report);
  const sim::Time cycle =
      input.cluster != nullptr ? input.cluster->cycle_duration() : sim::Time::zero();
  const sim::Time slot = input.cluster != nullptr
                             ? input.cluster->static_slot_duration()
                             : sim::Time::zero();

  const ReliabilityTarget target(input);

  // --- analysis.prob-miss-exceeds-target --------------------------------
  // The analytic (timing + correlated-loss) reliability misses the
  // configured target while the plan claims the target is met.
  check_miss_exceeds_target(
      out, "analysis.prob-miss-exceeds-target", "", input, result,
      [](const MessageProb& mp) {
        return strformat("message %s: analytic P(miss) %.4g exceeds its "
                         "equal-share budget (class %c, %d/%d timely "
                         "attempts)",
                         mp.name.c_str(), mp.p_miss_upper, mp.sae_class,
                         mp.timely_attempts, mp.planned_attempts);
      });

  // --- analysis.kz-contradiction ----------------------------------------
  // (0a) The primary never transmits: the table gives the message no
  // slot, or the placement's transmitting occurrence falls in the cycle
  // that stages the next release (the schedule table claims the
  // deadline is met, but the primary is overwritten before its slot
  // fires). Every attempt the reliability accounting pays for rides a
  // transmission that does not happen.
  for (const MessageProb& mp : result.messages) {
    if (mp.primary_live) continue;
    Location loc;
    loc.message_id = mp.message_id;
    const bool unplaced = input.table != nullptr &&
                          input.table->assignment_of(mp.message_id) == nullptr;
    out.add("analysis.kz-contradiction",
            strformat("message %s: %s (deterministic miss, T=%.0fus)",
                      mp.name.c_str(),
                      unplaced ? "the schedule table gives it no slot — the "
                                 "primary is never sent"
                               : "placement crosses into the next release's "
                                 "staging cycle — the primary is overwritten "
                                 "before its slot and never transmits",
                      mp.period.as_us()),
            loc);
  }
  // (0b) The plan's k_z copies demand more stolen wire than the
  // schedule guarantees: the Theorem-1 sizing counts copies the walk
  // may drop when their deadline passes with no fitting slack.
  if (input.discipline == ProbRetxModel::kPlannedSerial &&
      target.plan_claims_met && !result.copies_credited &&
      result.copy_demand_per_cycle > sim::Time::zero()) {
    out.add("analysis.kz-contradiction",
            strformat("k_z plan demands %.1fus/cycle of stolen slack but "
                      "the schedule only guarantees %.1fus/cycle — planned "
                      "copies are not schedulable and may be dropped",
                      result.copy_demand_per_cycle.as_us(),
                      result.guaranteed_service_per_cycle.as_us()));
  }
  // (a) A planned copy cannot land before the deadline even at the
  // best-case spacing (two channels, consecutive slots), so the
  // Theorem-1 accounting counts redundancy that can never arrive.
  for (const MessageProb& mp : result.messages) {
    if (mp.planned_attempts <= 1) continue;
    sim::Time r0 = cycle;
    if (input.table != nullptr) {
      if (const sched::SlotAssignment* a =
              input.table->assignment_of(mp.message_id)) {
        r0 = a->latency;
      }
    }
    const int last = mp.planned_attempts - 1;
    const sim::Time earliest_last =
        input.discipline == ProbRetxModel::kPlannedSerial
            ? r0 + slot * (last / 2)  // 2 channels: 2 copies per slot time
            : r0 + cycle * last;      // mirrored rounds: one per occurrence
    if (earliest_last > mp.deadline) {
      Location loc;
      loc.message_id = mp.message_id;
      out.add("analysis.kz-contradiction",
              strformat("message %s: planned attempt %d cannot complete "
                        "before the deadline even best-case (earliest %.0fus "
                        "> D=%.0fus)",
                        mp.name.c_str(), last, earliest_last.as_us(),
                        mp.deadline.as_us()),
              loc);
    }
  }
  // (b) The memoryless (Theorem-1) accounting meets the target but the
  // correlated chaining of the configured fault model does not: the k_z
  // sizing is contradicted by the channel's burst structure.
  if (target.has_target && target.plan_claims_met &&
      input.cluster != nullptr && input.statics != nullptr) {
    fault::AnalyticFailure af(input.fault_model);
    double chain_log = 0.0;
    double iid_log = 0.0;
    std::vector<std::pair<const MessageProb*, double>> gaps;
    for (const MessageProb& mp : result.messages) {
      const net::Message* m = input.statics->find(mp.message_id);
      if (m == nullptr) continue;
      const double chained = chain_fail(af, input.discipline, m->size_bits,
                                        mp.planned_attempts);
      const double indep = indep_fail(af, input.discipline, m->size_bits,
                                      mp.planned_attempts);
      const double chain_term = theorem1_term(chained, mp.period, input.u);
      const double iid_term = theorem1_term(indep, mp.period, input.u);
      chain_log += chain_term;
      iid_log += iid_term;
      if (iid_term - chain_term > target.tol) {
        gaps.emplace_back(&mp, chained);
      }
    }
    if (iid_log >= target.log_target - target.tol &&
        chain_log < target.log_target - target.tol) {
      out.add("analysis.kz-contradiction",
              strformat("k_z plan meets the target only under the "
                        "memoryless model: correlated-loss reliability "
                        "%.6g < target %.6g (memoryless %.6g)",
                        std::exp(chain_log), std::exp(target.log_target),
                        std::exp(iid_log)));
      for (const auto& [mp, chained] : gaps) {
        Location loc;
        loc.message_id = mp->message_id;
        out.add("analysis.kz-contradiction",
                strformat("message %s: burst-correlated loss %.4g per "
                          "instance exceeds the k_z=%d sizing's memoryless "
                          "assumption",
                          mp->name.c_str(), chained,
                          mp->planned_attempts - 1),
                loc);
      }
    }
  }
  return report;
}

void check_divergence(const std::vector<DivergenceSample>& samples,
                      Report& report, const char* rule) {
  CappedReport out(report);
  for (const DivergenceSample& s : samples) {
    if (s.released <= 0) continue;
    const double n = static_cast<double>(s.released);
    const double measured = static_cast<double>(s.missed) / n;
    const auto slack = [n](double edge) {
      const double var = std::max(edge * (1.0 - edge), 0.0);
      return 5.0 * std::sqrt(var / n) + 2.0 / n;
    };
    if (measured > s.p_upper + slack(s.p_upper)) {
      out.add(rule,
              strformat("%s: measured miss ratio %.4g (%lld/%lld) exceeds "
                        "the analytic upper envelope %.4g",
                        s.label.c_str(), measured,
                        static_cast<long long>(s.missed),
                        static_cast<long long>(s.released), s.p_upper));
    } else if (measured < s.p_lower - slack(s.p_lower)) {
      out.add(rule,
              strformat("%s: measured miss ratio %.4g (%lld/%lld) falls "
                        "below the analytic lower envelope %.4g",
                        s.label.c_str(), measured,
                        static_cast<long long>(s.missed),
                        static_cast<long long>(s.released), s.p_lower));
    }
  }
}

std::string render_envelope_header(const char* title,
                                   const EnvelopeInput& input,
                                   const SetEnvelope& set) {
  std::string out = strformat("%s (%s, %s)\n", title,
                              to_string(input.discipline),
                              fault::describe(input.fault_model).c_str());
  out += strformat(
      "  reliability envelope over u=%.0fs: [%.9g, %.9g]  (target %s)\n",
      input.u.as_seconds(), std::exp(set.log_reliability_upper),
      std::exp(set.log_reliability_lower),
      input.rho > 0.0 ? strformat("%.9g", input.rho).c_str() : "none");
  return out;
}

std::string render_json_prelude(const EnvelopeInput& input) {
  std::string out = "{";
  out += strformat("\"discipline\":\"%s\",", to_string(input.discipline));
  out += strformat("\"fault_model\":\"%s\",",
                   json_escape(fault::describe(input.fault_model)).c_str());
  out += strformat("\"rho\":%.17g,\"u_seconds\":%.9g,", input.rho,
                   input.u.as_seconds());
  return out;
}

std::string render_json_reliability(const SetEnvelope& set) {
  const auto finite_log = [](double v) {
    return std::isfinite(v) ? v : -std::numeric_limits<double>::max();
  };
  std::string out = strformat("\"log_reliability_upper\":%.17g,",
                              finite_log(set.log_reliability_upper));
  out += strformat("\"log_reliability_lower\":%.17g,",
                   finite_log(set.log_reliability_lower));
  return out;
}

std::string render_class_text(const std::vector<ClassProb>& classes,
                              const char* scope) {
  std::string out;
  for (const ClassProb& c : classes) {
    out += strformat(
        "  %sclass %c: %d message(s), worst P(miss) in [%.4g, %.4g]\n", scope,
        c.sae_class, c.messages, c.worst_p_miss_lower, c.worst_p_miss_upper);
  }
  return out;
}

std::string render_class_json(const std::vector<ClassProb>& classes) {
  std::string out = "[";
  bool first = true;
  for (const ClassProb& c : classes) {
    if (!first) out += ',';
    first = false;
    out += strformat(
        "{\"class\":\"%c\",\"messages\":%d,\"worst_p_miss_upper\":%.17g,"
        "\"worst_p_miss_lower\":%.17g}",
        c.sae_class, c.messages, c.worst_p_miss_upper, c.worst_p_miss_lower);
  }
  out += "]";
  return out;
}

std::string render_prob_text(const ProbWcrtInput& input,
                             const ProbWcrtResult& result) {
  std::string out =
      render_envelope_header("probabilistic WCRT analysis", input, result);
  out += strformat("  guaranteed stealable service per cycle: %.1fus\n",
                   result.guaranteed_service_per_cycle.as_us());
  if (input.discipline == ProbRetxModel::kPlannedSerial) {
    out += strformat("  plan copy demand per cycle: %.1fus (%s)\n",
                     result.copy_demand_per_cycle.as_us(),
                     result.copies_credited
                         ? "credited"
                         : "NOT credited: exceeds guaranteed service");
  }
  out += strformat("  %-16s %-3s %-8s %-8s %-12s %-12s %-10s\n", "message",
                   "cls", "attempts", "timely", "P(miss) up", "P(miss) lo",
                   "p999");
  for (const MessageProb& mp : result.messages) {
    const std::string p999 =
        mp.response_p999 == sim::Time::max()
            ? std::string("inf")
            : strformat("%.0fus", mp.response_p999.as_us());
    out += strformat("  %-16s %-3c %-8d %-8d %-12.4g %-12.4g %-10s%s\n",
                     mp.name.c_str(), mp.sae_class, mp.planned_attempts,
                     mp.timely_attempts, mp.p_miss_upper, mp.p_miss_lower,
                     p999.c_str(), mp.primary_live ? "" : " [primary-dead]");
  }
  return out + render_class_text(result.classes);
}

std::string render_prob_json(const ProbWcrtInput& input,
                             const ProbWcrtResult& result) {
  std::string out = render_json_prelude(input);
  out += strformat("\"quantum_us\":%.3f,", input.options.quantum.as_us());
  out += strformat("\"guaranteed_service_us\":%.3f,",
                   result.guaranteed_service_per_cycle.as_us());
  out += strformat("\"copy_demand_us\":%.3f,\"copies_credited\":%s,",
                   result.copy_demand_per_cycle.as_us(),
                   result.copies_credited ? "true" : "false");
  out += render_json_reliability(result);
  out += "\"messages\":[";
  bool first = true;
  for (const MessageProb& mp : result.messages) {
    if (!first) out += ',';
    first = false;
    out += strformat(
        "{\"id\":%d,\"name\":\"%s\",\"class\":\"%c\","
        "\"planned_attempts\":%d,\"timely_attempts\":%d,"
        "\"primary_live\":%s,"
        "\"p_attempt\":%.17g,\"p_miss_upper\":%.17g,\"p_miss_lower\":%.17g,"
        "\"deadline_us\":%.3f,\"period_us\":%.3f,\"response_p999_us\":%.3f}",
        mp.message_id, json_escape(mp.name).c_str(), mp.sae_class,
        mp.planned_attempts, mp.timely_attempts,
        mp.primary_live ? "true" : "false", mp.p_attempt, mp.p_miss_upper,
        mp.p_miss_lower, mp.deadline.as_us(), mp.period.as_us(),
        mp.response_p999 == sim::Time::max() ? -1.0 : mp.response_p999.as_us());
  }
  out += "],\"classes\":" + render_class_json(result.classes) + "}";
  return out;
}

}  // namespace coeff::analysis
