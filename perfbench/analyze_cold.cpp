// analyze-cold: the design-time analysis a `coeffctl analyze --prob`
// invocation runs, on a fresh synthetic static set per operation
// (20/40/60/80/100 messages in turn, 30 SAE dynamics, CoEfficient, the
// 50-minislot cluster). Each operation runs in its own forked child, as
// each analyze invocation is its own process, so the process-wide
// SlackTable::shared cache (which never evicts) starts empty every time.
// One caller, closed loop. No cycle is simulated.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "analysis/dyn_wcrt.hpp"
#include "analysis/prob_wcrt.hpp"
#include "campaign/cross_check.hpp"
#include "layers.hpp"
#include "net/workloads.hpp"
#include "sched/slack_table.hpp"
#include "sched/task.hpp"
#include "sim/random.hpp"

namespace perfbench {
namespace {

core::ExperimentConfig analysis_config(std::uint64_t set_seed,
                                       std::size_t statics) {
  core::ExperimentConfig config;
  config.cluster = core::paper_cluster_dynamic_suite(50);
  sim::Rng rng(set_seed);
  net::SyntheticStaticOptions opt;
  opt.count = statics;
  config.statics = net::synthetic_static(opt, rng);
  sim::Rng dyn_rng(mix64(set_seed));
  net::SaeAperiodicOptions sae;
  sae.static_slots = static_cast<int>(config.cluster.g_number_of_static_slots);
  config.dynamics = net::sae_aperiodic(sae, dyn_rng);
  config.ber = 1e-7;
  config.sil = fault::Sil::kSil3;
  return config;
}

/// The static set as the wire-speed task set the probabilistic analysis
/// hands to SlackTable::shared (prob_wcrt.cpp, guaranteed_service).
sched::TaskSet wire_task_set(const core::ExperimentConfig& config) {
  std::vector<sched::PeriodicTask> tasks;
  for (const auto& m : config.statics.messages()) {
    sched::PeriodicTask t;
    t.id = m.id;
    t.wcet = config.cluster.transmission_time(m.size_bits);
    t.period = m.period;
    t.offset = m.offset;
    t.deadline = m.deadline;
    tasks.push_back(t);
  }
  return sched::TaskSet{std::move(tasks)};
}

/// Exact-parameter fingerprint of that task set (the cache key).
std::string fingerprint(const core::ExperimentConfig& config) {
  const sched::TaskSet set = wire_task_set(config);
  std::string text;
  for (const sched::PeriodicTask& t : set.tasks()) {
    text += std::to_string(t.id) + "," + std::to_string(t.wcet.ns()) + "," +
            std::to_string(t.period.ns()) + "," + std::to_string(t.offset.ns()) +
            "," + std::to_string(t.deadline.ns()) + ";";
  }
  return digest_hex(text);
}

template <typename Messages>
int bad_envelopes(const Messages& messages) {
  int bad = 0;
  for (const auto& mp : messages) {
    const bool ok = mp.p_miss_lower >= 0.0 && mp.p_miss_lower <= mp.p_miss_upper &&
                    mp.p_miss_upper <= 1.0;
    bad += ok ? 0 : 1;
  }
  return bad;
}

/// The child body: one cold analysis, reported back to the parent.
int analyze_once(const core::ExperimentConfig& config, bool make_it_throw,
                 ChildReport& report) {
  if (make_it_throw) {
    const analysis::ProbWcrtInput empty;  // null cluster: the library throws
    (void)analysis::analyze_prob_wcrt(empty);
  }
  const std::int64_t start = now_ns();
  std::unique_ptr<campaign::ProbSetup> setup;
  {
    const Span span("analysis.setup");
    setup = campaign::make_prob_setup(config, core::SchemeKind::kCoEfficient,
                                      analysis::ProbWcrtOptions{});
  }
  const double setup_s = seconds_since(start);
  analysis::ProbWcrtResult prob;
  {
    const Span span("analysis.prob_wcrt");
    if (tracer().enabled()) {
      // Build the slack table through the same cache the analysis uses,
      // so the analysis below finds it and the build gets its own span.
      const double rss_before = current_rss_mb();
      std::shared_ptr<const sched::SlackTable> table;
      {
        const Span build("sched.slack_table_build");
        table = sched::SlackTable::shared(wire_task_set(config));
      }
      report.number("slack_rss_mb", current_rss_mb() - rss_before);
      const Span query("sched.slack_query");
      (void)table->min_idle_in_window(config.cluster.cycle_duration());
    }
    prob = analysis::analyze_prob_wcrt(setup->input);
  }
  analysis::DynWcrtResult dyn;
  {
    const Span span("analysis.dyn_wcrt");
    dyn = analysis::analyze_dyn_wcrt(setup->dyn_input);
  }
  report.number("op_s", seconds_since(start));
  report.number("setup_s", setup_s);
  report.number("bad_envelopes",
                bad_envelopes(prob.messages) + bad_envelopes(dyn.messages));
  const auto [lo, hi] = campaign::envelope_miss_ratio(prob);
  const auto [dlo, dhi] = campaign::dyn_envelope_miss_ratio(dyn);
  char buf[160];
  std::snprintf(buf, sizeof buf, "%.6e %.6e %.6e %.6e", lo, hi, dlo, dhi);
  report.text("envelope", buf);
  return 0;
}

}  // namespace

WorkloadResult run_analyze_cold(const Options& options) {
  WorkloadResult out;
  const std::vector<std::size_t> sizes =
      options.tiny ? std::vector<std::size_t>{10, 20}
                   : std::vector<std::size_t>{20, 40, 60, 80, 100};
  std::set<std::string> seen;
  std::vector<double> op_s;
  std::map<std::size_t, std::vector<double>> op_by_size;  ///< in the child
  std::vector<double> setup_s;
  std::map<std::size_t, std::vector<double>> rss_by_size;  ///< child peaks
  std::map<std::size_t, std::vector<double>> wall_by_size;  ///< fork to reap
  std::vector<double> slack_rss;
  std::string envelopes;
  double untraced_s = 0.0;
  double traced_s = 0.0;

  auto run_op = [&](std::int64_t k, const core::ExperimentConfig& config,
                    bool traced) {
    ++out.attempted;
    const bool make_it_throw = options.inject_throw && k == 1;
    // The paired untraced replay of the traced pass records no spans.
    const bool tracing = tracer().enabled();
    tracer().enable(traced);
    const std::int64_t start = now_ns();
    ChildResult child;
    {
      const Span span("analyze.op");
      child = run_in_child([&](ChildReport& report) {
        return analyze_once(config, make_it_throw, report);
      });
      tracer().adopt(child.spans);
    }
    (traced ? traced_s : untraced_s) += seconds_since(start);
    tracer().enable(tracing);
    if (!child.ok) {
      const auto it = child.texts.find("error");
      out.fail("op " + std::to_string(k) + " analysis failed" +
               (it != child.texts.end() ? ": " + it->second : ""));
      return;
    }
    if (child.numbers["bad_envelopes"] > 0.0) {
      out.fail("op " + std::to_string(k) + ": envelope outside 0 <= lower <= upper <= 1");
    }
    if (!traced) {
      op_s.push_back(child.numbers["op_s"]);
      op_by_size[config.statics.size()].push_back(child.numbers["op_s"]);
      setup_s.push_back(child.numbers["setup_s"]);
      rss_by_size[config.statics.size()].push_back(child.maxrss_mb);
      wall_by_size[config.statics.size()].push_back(child.wall_s);
      envelopes += child.texts["envelope"] + ";";
    } else {
      slack_rss.push_back(child.numbers["slack_rss_mb"]);
    }
  };

  const std::int64_t loop_start = now_ns();
  std::int64_t k = 0;
  while (k < static_cast<std::int64_t>(sizes.size()) ||
         seconds_since(loop_start) < options.seconds) {
    const std::size_t n = sizes[static_cast<std::size_t>(k) % sizes.size()];
    core::ExperimentConfig config;
    {
      tracer().set_op(static_cast<int>(k));
      const Span span("net.generate");
      config = analysis_config(mix64(options.seed * 1'000'003ULL +
                                     static_cast<std::uint64_t>(k)),
                               n);
    }
    // A repeated task set would be timed as a cache hit in a process
    // that kept its cache; every operation must analyse a fresh one.
    if (!seen.insert(fingerprint(config)).second) {
      ++out.attempted;
      out.fail("op " + std::to_string(k) + ": task-set fingerprint repeats");
    } else {
      // The traced pass alternates which of the pair runs first.
      const bool untraced_first = options.trace && k % 2 == 0;
      if (untraced_first) run_op(k, config, /*traced=*/false);
      run_op(k, config, options.trace);
      if (options.trace && !untraced_first) run_op(k, config, /*traced=*/false);
    }
    ++k;
  }
  const double loop_s = seconds_since(loop_start);

  if (!options.trace) {
    const double p90 = quantile(op_s, 0.9);
    // Both figures take each set size at its median and weigh the five
    // sizes equally. The sizes' latencies are far apart, so the median
    // over all analyses would be the median of the middle size alone,
    // about ten samples.
    double round_s = 0.0;
    for (const auto& [size, walls] : wall_by_size) round_s += median(walls);
    const double analyses_per_s =
        round_s > 0.0 ? static_cast<double>(sizes.size()) / round_s : 0.0;
    double op_ms = 0.0;
    for (const auto& [size, samples] : op_by_size) op_ms += median(samples) * 1e3;
    op_ms /= static_cast<double>(std::max<std::size_t>(1, op_by_size.size()));
    out.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"op_ms_p50", op_ms, "ms"},
        {"work_per_s", analyses_per_s, "1/s"},
        // Over the largest sets, whose hyperperiod (and so slack-table
        // size) varies least from set to set.
        {"peak_rss_mb", median(rss_by_size[sizes.back()]), "MB"},
    };
    out.extras = {
        {"analyses_per_s", analyses_per_s, "analyses/s"},
        {"analyses_per_s_loop", static_cast<double>(op_s.size()) / loop_s, "analyses/s"},
        {"op_ms_p50_all_sizes", median(op_s) * 1e3, "ms"},
        {"ops_timed", static_cast<double>(op_s.size()), "count"},
    };
    if (op_s.size() >= 100) out.extras.push_back({"op_ms_p90", p90 * 1e3, "ms"});
    for (const auto& [size, walls] : wall_by_size) {
      char line[160];
      std::snprintf(line, sizeof line,
                    "%3zu messages: %zu analyses, wall ms p25/p50/p75 %.0f/%.0f/%.0f",
                    size, walls.size(), quantile(walls, 0.25) * 1e3,
                    median(walls) * 1e3, quantile(walls, 0.75) * 1e3);
      out.notes.push_back(line);
    }
    out.notes.push_back("envelope digest (not enforced) " + digest_hex(envelopes));
    return out;
  }

  std::map<std::string, double> values;
  const Tracer& t = tracer();
  values["net.generate_s"] = median(t.durations("net.generate"));
  values["analysis.setup_s"] = median(t.durations("analysis.setup"));
  values["analysis.prob_wcrt_s"] = median(t.durations("analysis.prob_wcrt"));
  values["analysis.prob_wcrt_self_s"] = median(t.self_times("analysis.prob_wcrt"));
  values["analysis.dyn_wcrt_s"] = median(t.durations("analysis.dyn_wcrt"));
  values["sched.slack_table_build_s"] = median(t.durations("sched.slack_table_build"));
  values["sched.slack_query_s"] = median(t.durations("sched.slack_query"));
  values["sched.slack_table_rss_mb"] = median(slack_rss);
  const double analysis_s = sum(t.durations("analysis.setup")) +
                            sum(t.durations("analysis.prob_wcrt")) +
                            sum(t.durations("analysis.dyn_wcrt"));
  if (analysis_s > 0.0) {
    values["sched.slack_table_share"] =
        sum(t.durations("sched.slack_table_build")) / analysis_s;
  }
  values["trace.overhead"] = untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0;
  values["trace.unattributed_share"] = t.unattributed_share(
      "analyze.op", traced_s + sum(t.durations("net.generate")));
  emit_per_layer(out, values);
  return out;
}

}  // namespace perfbench
