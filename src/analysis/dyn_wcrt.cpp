#include "analysis/dyn_wcrt.hpp"

#include <algorithm>
#include <stdexcept>

#include "units/convert.hpp"

namespace coeff::analysis {

DynWcrtResult analyze_dyn_wcrt(const DynWcrtInput& input) {
  if (input.cluster == nullptr || input.dynamics == nullptr) {
    throw std::invalid_argument("analyze_dyn_wcrt: null cluster/dynamics");
  }
  if (input.max_slips < 1) {
    throw std::invalid_argument("analyze_dyn_wcrt: max_slips < 1");
  }
  const flexray::ClusterConfig& cfg = *input.cluster;
  const sim::Time cycle = cfg.cycle_duration();
  const sim::Time ms_dur = cfg.minislot_duration();
  const sim::Time static_seg = cfg.static_segment_duration();
  const sim::Time aoff =
      units::to_time(cfg.gd_minislot_action_point_offset, cfg.gd_macrotick);
  const std::int64_t n_ms = cfg.g_number_of_minislots;
  const std::int64_t latest = cfg.latest_tx_minislot().value();
  const std::int64_t first_dyn_slot = cfg.g_number_of_static_slots + 1;

  // A degraded CoEfficient plan load-sheds every dynamic release at its
  // source (on_dynamic_release): no queue entry, no rescue, envelope [1,1].
  const bool shed_all = input.discipline == ProbRetxModel::kPlannedSerial &&
                        input.plan != nullptr && input.plan->degraded;

  // FTDMA priority = frame id: walk in ascending order so each message
  // sees exactly the strictly-higher-priority interference accumulated
  // so far.
  std::vector<const net::Message*> order;
  for (const net::Message& m : input.dynamics->messages()) {
    if (m.frame_id < first_dyn_slot) {
      throw std::invalid_argument(strformat(
          "analyze_dyn_wcrt: message %d (frame %d) has no dynamic frame id "
          "(first dynamic slot is %lld)",
          m.id, m.frame_id, static_cast<long long>(first_dyn_slot)));
    }
    order.push_back(&m);
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const net::Message* a, const net::Message* b) {
                     return a->frame_id < b->frame_id;
                   });

  DynWcrtResult result;
  fault::AnalyticFailure af(input.fault_model);

  // Higher-priority extra-minislot load, three ways: the exact maximum
  // (deterministic-fit test), the mean (Markov bound of the upper edge),
  // and the full independence-model distribution convolved on an exact
  // minislot-quantum grid (nominal model + diagnostic output).
  const std::size_t grid_bins =
      static_cast<std::size_t>(std::max<std::int64_t>(64, n_ms + 2));
  Pmf intf = Pmf::delta(sim::Time::zero(), ms_dur, grid_bins);
  double e_mean = 0.0;
  std::int64_t e_max = 0;

  for (const net::Message* mp_msg : order) {
    const net::Message& m = *mp_msg;
    DynMessageProb mp;
    mp.message_id = m.id;
    mp.name = m.name;
    mp.frame_id = m.frame_id;
    mp.sae_class = sae_class_of(m.deadline);
    mp.deadline = m.deadline;
    mp.period = m.period;
    mp.need_minislots = cfg.minislots_for(m.size_bits);
    mp.baseline_offset = m.frame_id - first_dyn_slot;
    // A transmission starting at 0-based walk position p needs
    // p + 1 <= pLatestTx and need <= N - p; t_pos is the last feasible
    // start, slack the room left after the guaranteed baseline walk.
    const std::int64_t t_pos = std::min(latest - 1, n_ms - mp.need_minislots);
    mp.slack_minislots = t_pos - mp.baseline_offset;
    const sim::Time tx = cfg.transmission_time(m.size_bits);

    // One dynamic instance spends exactly one wire attempt: a single
    // channel-A transmission under CoEfficient (a popped-and-corrupted
    // instance settles; `add_copies(inst, 1)`), a mirrored dual-channel
    // pair under FSPEC/HOSA (channel B replays the dynamic mirror).
    mp.p_attempt = chain_fail(af, input.discipline, m.size_bits, 1);
    const double fail_up = mp.p_attempt;
    const double fail_lo = indep_fail(af, input.discipline, m.size_bits, 1);

    Pmf response(input.options.quantum, input.options.max_bins);
    mp.nominal_p999 = sim::Time::max();

    if (shed_all) {
      mp.shed = true;
      mp.p_blocked_upper = 1.0;
      mp.p_blocked_nominal = 1.0;
      response.add_overflow(1.0);
      mp.p_miss_upper = 1.0;
      mp.p_miss_lower = 1.0;
    } else if (mp.slack_minislots < 0) {
      // Deterministic starvation: even an empty segment walks the
      // counter past the last feasible start before this frame's turn.
      mp.starved = true;
      mp.p_blocked_upper = 1.0;
      mp.p_blocked_nominal = 1.0;
      response.add_overflow(1.0);
      mp.p_miss_upper = 1.0;
      // CoEfficient's slack stealer can rescue a queued dynamic entry
      // through a stolen static slot (one single-channel attempt), so
      // the optimistic edge keeps the attempt failure; the mirrored
      // disciplines have no rescue path and the envelope collapses.
      mp.p_miss_lower = input.discipline == ProbRetxModel::kPlannedSerial
                            ? std::min(fail_lo, 1.0)
                            : 1.0;
    } else {
      // --- Upper edge: correlation-free blocking bound ------------------
      // Sound worst-case response when serving at the j-th opportunity:
      //   R_u(j) = (j+1)*cycle + static segment + t_pos*minislot
      //            + action point + transmission,
      // (release just missed its own cycle's walk, start at the last
      // feasible minislot). k_timely counts opportunities with
      // R_u(j) <= D.
      const sim::Time r1 = cycle + static_seg + ms_dur * t_pos + aoff + tx;
      std::int64_t k_timely = 0;
      if (r1 <= m.deadline) {
        k_timely = (m.deadline - r1).ns() / cycle.ns() + 1;
      }
      // Markov bound on the per-cycle blocked fraction: each
      // higher-priority instance transmits at most once, so the long-run
      // extra-minislot load per cycle is at most e_mean regardless of
      // arrival correlation; P(E > slack) <= e_mean/(slack+1).
      double p_blk_bar = 0.0;
      if (e_max > mp.slack_minislots) {
        p_blk_bar = std::min(
            1.0, e_mean / static_cast<double>(mp.slack_minislots + 1));
      }
      // Adversarial arrival phasing: a burst of blocked cycles kills an
      // instance only by covering its k_timely consecutive opportunity
      // cycles; instances are spaced T/cycle apart, so the killed
      // fraction is at most p_blk_bar * spacing/k_timely.
      const double spacing =
          std::max(1.0, static_cast<double>(m.period.ns()) /
                            static_cast<double>(cycle.ns()));
      double p_blk_u = 1.0;
      if (k_timely > 0) {
        p_blk_u = std::min(
            1.0,
            p_blk_bar * std::max(1.0, spacing / static_cast<double>(k_timely)));
      }
      // Rate stability: CoEfficient's two channels can pop two queued
      // instances per cycle, the mirrored disciplines serve one pair.
      const double rate = static_cast<double>(cycle.ns()) /
                          static_cast<double>(m.period.ns());
      const double capacity =
          input.discipline == ProbRetxModel::kPlannedSerial ? 2.0 : 1.0;
      if (rate > capacity) p_blk_u = 1.0;
      mp.p_blocked_upper = p_blk_u;

      // Served mass lands no later than the last timely opportunity.
      const double serve = (1.0 - p_blk_u) * (1.0 - fail_up);
      if (serve > 0.0 && k_timely > 0) {
        response.add_mass(r1 + cycle * (k_timely - 1), serve);
      }
      response.add_overflow(1.0 - serve);
      mp.p_miss_upper = std::min(1.0, response.tail_above(m.deadline));

      // --- Lower edge: uncontended, ideally phased service --------------
      const sim::Time r_lo = aoff + tx;
      mp.p_miss_lower = std::min(r_lo > m.deadline ? 1.0 : fail_lo,
                                 mp.p_miss_upper);

      // --- Nominal model: convolved interference + geometric slips ------
      mp.p_blocked_nominal =
          std::min(1.0, intf.tail_above(ms_dur * mp.slack_minislots));
      Pmf first(input.options.quantum, input.options.max_bins);
      const std::vector<double>& ibins = intf.bins();
      for (std::size_t e = 0; e < ibins.size(); ++e) {
        const auto extra = static_cast<std::int64_t>(e);
        if (extra > mp.slack_minislots) break;
        if (ibins[e] <= 0.0) continue;
        first.add_mass(cycle + static_seg +
                           ms_dur * (mp.baseline_offset + extra) + aoff + tx,
                       ibins[e]);
      }
      if (first.total_mass() > 0.0) {
        first.normalize();
        Pmf nominal = with_cycle_slips(first, mp.p_blocked_nominal, cycle,
                                       input.max_slips);
        Pmf composed(input.options.quantum, input.options.max_bins);
        composed.accumulate(nominal, 1.0 - fail_lo);
        composed.add_overflow(fail_lo);
        mp.nominal_p999 = composed.quantile(0.999);
      }
    }

    mp.response_p999 = response.quantile(0.999);

    // Fold this frame into the interference seen by lower priorities.
    // A shed or deterministically starved frame never transmits, so it
    // contributes no extra minislots (its idle walk is already in every
    // lower frame's baseline offset).
    const std::int64_t extra = mp.need_minislots - 1;
    if (!mp.shed && !mp.starved && extra > 0) {
      const double q =
          std::min(1.0, static_cast<double>(cycle.ns()) /
                            static_cast<double>(m.period.ns()));
      e_mean += q * static_cast<double>(extra);
      e_max += extra;
      Pmf bern(ms_dur, grid_bins);
      bern.add_mass(sim::Time::zero(), 1.0 - q);
      bern.add_mass(ms_dur * extra, q);
      intf = intf.convolve(bern);
    }

    result.messages.push_back(std::move(mp));
  }

  for (const DynMessageProb& mp : result.messages) result.fold(mp, input.u);
  result.interference = std::move(intf);
  return result;
}

Report lint_dyn(const DynWcrtInput& input, const DynWcrtResult& result) {
  Report report;
  CappedReport out(report);

  // --- analysis.dyn-starvation ------------------------------------------
  for (const DynMessageProb& mp : result.messages) {
    Location loc;
    loc.message_id = mp.message_id;
    if (mp.shed) {
      out.add("analysis.dyn-starvation",
              strformat("message %s (frame %d): degraded plan sheds every "
                        "dynamic release at its source — miss envelope is "
                        "[1, 1]",
                        mp.name.c_str(), mp.frame_id),
              loc);
    } else if (mp.starved) {
      out.add("analysis.dyn-starvation",
              strformat("message %s (frame %d): can never start — baseline "
                        "walk position %lld is past the last feasible start "
                        "%lld (needs %lld of %lld minislots, pLatestTx %lld)",
                        mp.name.c_str(), mp.frame_id,
                        static_cast<long long>(mp.baseline_offset),
                        static_cast<long long>(mp.baseline_offset +
                                               mp.slack_minislots),
                        static_cast<long long>(mp.need_minislots),
                        static_cast<long long>(
                            input.cluster->g_number_of_minislots),
                        static_cast<long long>(
                            input.cluster->latest_tx_minislot().value())),
              loc);
    } else if (mp.p_miss_upper >= 1.0) {
      // Saturated by worst-case contention, not by geometry: the frame
      // may starve under adversarial phasing but is not provably dead.
      Diagnostic d;
      d.rule = "analysis.dyn-starvation";
      d.severity = Severity::kWarning;
      d.message = strformat(
          "message %s (frame %d): upper envelope saturates at 1 under "
          "worst-case contention (blocked bound %.4g over %lld slack "
          "minislots)",
          mp.name.c_str(), mp.frame_id, mp.p_blocked_upper,
          static_cast<long long>(mp.slack_minislots));
      d.loc = loc;
      out.add(std::move(d));
    }
  }

  // --- analysis.dyn-miss-exceeds-target ---------------------------------
  check_miss_exceeds_target(
      out, "analysis.dyn-miss-exceeds-target", "dynamic-segment ", input,
      result, [](const DynMessageProb& mp) {
        return strformat("message %s (frame %d): analytic P(miss) %.4g "
                         "exceeds its equal-share budget (class %c, blocked "
                         "bound %.4g)",
                         mp.name.c_str(), mp.frame_id, mp.p_miss_upper,
                         mp.sae_class, mp.p_blocked_upper);
      });
  return report;
}

std::vector<ClassProb> merge_class_envelopes(
    const std::vector<ClassProb>& statics,
    const std::vector<ClassProb>& dyns) {
  std::vector<ClassProb> merged;
  for (const ClassProb& c : statics) fold_class(merged, c);
  for (const ClassProb& c : dyns) fold_class(merged, c);
  return merged;
}

std::string render_dyn_text(const DynWcrtInput& input,
                            const DynWcrtResult& result) {
  std::string out = render_envelope_header(
      "dynamic-segment probabilistic analysis", input, result);
  out += strformat("  %-16s %-3s %-6s %-5s %-6s %-12s %-12s %-10s\n",
                   "message", "cls", "frame", "need", "slack", "P(miss) up",
                   "P(miss) lo", "p999");
  for (const DynMessageProb& mp : result.messages) {
    const std::string p999 =
        mp.response_p999 == sim::Time::max()
            ? std::string("inf")
            : strformat("%.0fus", mp.response_p999.as_us());
    const char* marker = mp.shed ? " [shed]" : (mp.starved ? " [starved]" : "");
    out += strformat(
        "  %-16s %-3c %-6d %-5lld %-6lld %-12.4g %-12.4g %-10s%s\n",
        mp.name.c_str(), mp.sae_class, mp.frame_id,
        static_cast<long long>(mp.need_minislots),
        static_cast<long long>(mp.slack_minislots), mp.p_miss_upper,
        mp.p_miss_lower, p999.c_str(), marker);
  }
  return out + render_class_text(result.classes);
}

std::string render_dyn_json(const DynWcrtInput& input,
                            const DynWcrtResult& result) {
  std::string out = render_json_prelude(input);
  out += strformat("\"max_slips\":%d,", input.max_slips);
  out += render_json_reliability(result);
  out += "\"messages\":[";
  bool first = true;
  for (const DynMessageProb& mp : result.messages) {
    if (!first) out += ',';
    first = false;
    out += strformat(
        "{\"id\":%d,\"name\":\"%s\",\"frame_id\":%d,\"class\":\"%c\","
        "\"need_minislots\":%lld,\"baseline_offset\":%lld,"
        "\"slack_minislots\":%lld,\"shed\":%s,\"starved\":%s,"
        "\"p_blocked_upper\":%.17g,\"p_blocked_nominal\":%.17g,"
        "\"p_attempt\":%.17g,\"p_miss_upper\":%.17g,\"p_miss_lower\":%.17g,"
        "\"deadline_us\":%.3f,\"period_us\":%.3f,"
        "\"response_p999_us\":%.3f,\"nominal_p999_us\":%.3f}",
        mp.message_id, json_escape(mp.name).c_str(), mp.frame_id,
        mp.sae_class, static_cast<long long>(mp.need_minislots),
        static_cast<long long>(mp.baseline_offset),
        static_cast<long long>(mp.slack_minislots),
        mp.shed ? "true" : "false", mp.starved ? "true" : "false",
        mp.p_blocked_upper, mp.p_blocked_nominal, mp.p_attempt,
        mp.p_miss_upper, mp.p_miss_lower, mp.deadline.as_us(),
        mp.period.as_us(),
        mp.response_p999 == sim::Time::max() ? -1.0 : mp.response_p999.as_us(),
        mp.nominal_p999 == sim::Time::max() ? -1.0 : mp.nominal_p999.as_us());
  }
  out += "],\"classes\":" + render_class_json(result.classes) + "}";
  return out;
}

std::string render_end_to_end_text(const std::vector<ClassProb>& classes) {
  return render_class_text(classes, "end-to-end ");
}

}  // namespace coeff::analysis
