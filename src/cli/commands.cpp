#include "cli/commands.hpp"

#include <algorithm>
#include <cctype>
#include <limits>

#include "campaign/scenario.hpp"

namespace coeff::cli {

namespace {

using core::SchemeKind;
constexpr int kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kI64Max = std::numeric_limits<std::int64_t>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();
/// FlexRay's bound on gNumberOfMinislots; every shipped cluster fits far
/// fewer (ClusterConfig::validate), it keeps the macrotick math in range.
constexpr std::int64_t kMaxMinislots = 7986;

std::vector<Row> join(std::vector<std::vector<Row>> groups) {
  std::vector<Row> rows;
  for (auto& group : groups) {
    for (Row& row : group) rows.push_back(std::move(row));
  }
  return rows;
}

/// A `bind` through one of the library's total parsers, which returns
/// nullopt on a value it rejects.
template <class T, class Parser>
std::function<bool(std::string_view)> assign(T& target, Parser parse) {
  return [&target, parse](std::string_view text) {
    const auto value = parse(text);
    if (value.has_value()) target = *value;
    return value.has_value();
  };
}

// --- Fields of the structural specs ("1:80:140", "A:50:100") ----------

bool field(std::string_view text, units::NodeId& out) {
  int id = -1;
  if (!parse_number(text, id) || id < 0) return false;
  out = units::NodeId{id};
  return true;
}

bool field(std::string_view text, units::SlotId& out) {
  std::int64_t id = 0;
  if (!parse_number(text, id) || id < 1) return false;
  out = units::SlotId{id};
  return true;
}

bool field(std::string_view text, sim::Time& out) {
  std::int64_t ms = -1;
  if (!parse_number(text, ms) || ms < 0 || ms > kMaxMillis) return false;
  out = sim::millis(ms);
  return true;
}

bool field(std::string_view text, double& ppm) {
  return parse_number(text, ppm) && ppm > 0.0;
}

template <class C>  // flexray::ChannelId, or an optional one
bool field(std::string_view text, C& out) {
  if (text != "A" && text != "a" && text != "B" && text != "b") return false;
  out = text == "A" || text == "a" ? flexray::ChannelId::kA
                                   : flexray::ChannelId::kB;
  return true;
}

/// Parses all of `text` as ':'-separated fields into `members` of a new
/// window, in order, and appends the window to `to`.
template <class W, class... F>
bool add_window(std::string_view text, std::vector<W>& to,
                F W::*... members) {
  if (static_cast<std::size_t>(std::count(text.begin(), text.end(), ':')) !=
      sizeof...(F) - 1) {
    return false;
  }
  W window;
  const auto next = [&text] {
    const std::string_view head = text.substr(0, text.find(':'));
    text.remove_prefix(std::min(head.size() + 1, text.size()));
    return head;
  };
  if (!(field(next(), window.*members) && ...)) return false;
  to.push_back(window);
  return true;
}

std::vector<Row> structural_rows(fault::StructuralFaultConfig& s) {
  using Crash = fault::NodeCrashWindow;
  using Blackout = fault::ChannelBlackoutWindow;
  using Babble = fault::BabbleWindow;
  using Drift = fault::DriftWindow;
  const std::string ints = "(integers >= 0)";
  return {
      spec("--crash", "NODE:START_MS:END_MS", "ECU crash/restart", ints,
           [&s](std::string_view t) {
             return add_window(t, s.crashes, &Crash::node, &Crash::at,
                               &Crash::restart);
           }),
      spec("--blackout", "A|B:START_MS:END_MS", "channel blackout", ints,
           [&s](std::string_view t) {
             return add_window(t, s.blackouts, &Blackout::channel,
                               &Blackout::at, &Blackout::until);
           }),
      spec("--babble", "NODE:SLOT:START_MS:END_MS[:A|B]",
           "slot jam, both channels unless named", "(SLOT >= 1, " + ints + ")",
           [&s](std::string_view t) {
             return add_window(t, s.babbles, &Babble::babbler, &Babble::slot,
                               &Babble::at, &Babble::until) ||
                    add_window(t, s.babbles, &Babble::babbler, &Babble::slot,
                               &Babble::at, &Babble::until, &Babble::channel);
           }),
      spec("--drift", "NODE:START_MS:END_MS:PPM", "clock-drift excursion",
           "(PPM > 0, " + ints + ")",
           [&s](std::string_view t) {
             return add_window(t, s.drifts, &Drift::node, &Drift::at,
                               &Drift::until, &Drift::excess_ppm);
           }),
      number("--crash-rate", "X", "stochastic crashes per node and second",
             s.stochastic_crashes.crashes_per_second, 0.0, kInf),
      millis("--crash-mttr-ms", "MS", "mean time to repair",
             s.stochastic_crashes.mean_time_to_repair, 1, kMaxMillis),
      number("--outage-rate", "X", "stochastic channel outages per second",
             s.stochastic_blackouts.outages_per_second, 0.0, kInf),
      millis("--outage-ms", "MS", "mean outage length",
             s.stochastic_blackouts.mean_outage, 1, kMaxMillis),
  };
}

/// The BER after a scheduled step, or -1 for no step.
Row ber_step(std::string name, std::string help, double& target) {
  return spec(
      std::move(name), "X", std::move(help), "(-1 = none, or in [0, 1])",
      [&target](std::string_view text) {
        double v = 0.0;
        const bool in = parse_number(text, v) &&
                        (v == -1.0 || (0.0 <= v && v <= 1.0));
        if (in) target = v;
        return in;
      },
      [&target] { return to_text(target); });
}

/// Everything run, lint and analyze need to build the experiment.
std::vector<Row> experiment_rows(ExperimentOptions& opt) {
  core::ExperimentConfig& c = opt.config;
  std::vector<Row> rows = {
      spec("--scheme", "NAME", "scheduling scheme",
           "in {coefficient|fspec|hosa}",
           assign(opt.scheme, campaign::parse_scheme_tag),
           [&opt] { return std::string(campaign::scheme_tag(opt.scheme)); }),
      choice("--workload", "NAME", "built-in static workload", opt.workload,
             {{"bbw", Workload::kBbw}, {"acc", Workload::kAcc},
              {"apps", Workload::kApps}, {"synthetic", Workload::kSynthetic}}),
      text("--statics", "FILE", "static messages from CSV", opt.statics_csv),
      text("--dynamics", "FILE", "dynamic messages from CSV", opt.dynamics_csv),
      number("--messages", "N", "synthetic static count", opt.messages, 0,
             kIntMax),
      number("--minislots", "N", "dynamic segment size; 0 = per workload",
             opt.minislots, std::int64_t{0}, kMaxMinislots),
      number("--ber", "X", "bit error rate", c.ber, 0.0, 1.0),
      choice("--sil", "N", "IEC 61508 reliability goal", c.sil,
             {{"1", fault::Sil::kSil1}, {"2", fault::Sil::kSil2},
              {"3", fault::Sil::kSil3}, {"4", fault::Sil::kSil4}}),
      millis("--window-ms", "MS", "batch window", c.batch_window, 1,
             kMaxMillis),
      number("--seed", "N", "RNG seed", c.seed, std::uint64_t{0}, kU64Max),
      number("--burst", "N", "aperiodic burst size; 1 = periodic", opt.burst,
             1, kIntMax),
      flag("--drain", "running-time mode: drain the batch", c.drain_batch),
      flag("--no-dynamics", "statics only", opt.no_dynamics),
      millis("--ber-step-ms", "MS", "step the BER at; 0 = never",
             c.ber_step_at, 0, kMaxMillis),
      ber_step("--ber-step", "BER after the step", c.ber_step),
      millis("--ber-step2-ms", "MS", "second step at (burst: up, then down)",
             c.ber_step2_at, 0, kMaxMillis),
      ber_step("--ber-step2", "BER after the second step", c.ber_step2),
      flag("--monitor", "reliability monitor + online re-plan",
           c.enable_monitor),
      number("--monitor-window", "N", "monitor window in cycles",
             c.monitor.window_cycles, 1, kIntMax),
      number("--monitor-factor", "X", "drift trigger factor",
             c.monitor.trigger_factor, 1.0, kInf, /*lo_open=*/true),
      number("--monitor-cooldown", "N", "re-plan cooldown in cycles",
             c.monitor.cooldown_cycles, 0, kIntMax),
      spec("--mode-policy", "SPEC",
           "mode protocol: off|conservative|aggressive and/or key=value "
           "(enter-l1, enter-l2, exit, dwell, recovery, burst, window, "
           "backlog); drift escalation needs --monitor, backlog escalation "
           "(backlog= > 0) does not",
           "(e.g. 'aggressive,dwell=10'; '' = off)",
           assign(c.mode_policy, [](std::string_view t) {
             return t.empty() ? std::optional(sched::ModePolicy{})
                              : sched::parse_mode_policy(t);
           })),
      spec("--criticality", "SPEC", "ASIL-style levels per kind and id",
           "(e.g. 'static=high,dyn=low,7=medium')",
           [&opt](std::string_view t) {
             const auto spec = sched::parse_criticality_spec(t);
             if (spec.has_value()) {
               opt.criticality = t.empty() ? std::nullopt : spec;
             }
             return spec.has_value();
           }),
      flag("--power", "per-node DVFS/DPM energy accounting", c.power),
      spec("--vote", "K", "k-replica voting", "(0 = off, or odd >= 3)",
           [&c](std::string_view text) {
             int k = 0;
             const bool in = parse_number(text, k) &&
                             (k == 0 || (k >= 3 && k % 2 == 1));
             if (in) c.vote_replicas = k;
             return in;
           },
           [&c] { return to_text(c.vote_replicas); }),
      flag("--silent-detect", "detect silent nodes + re-plan membership",
           c.silent_node_detection),
      number("--silent-threshold", "N", "consecutive silent cycles",
             c.silent_cycle_threshold, 1, kIntMax),
  };
  return join({std::move(rows), fault_model_rows(c.fault_model),
               structural_rows(c.structural)});
}

}  // namespace

ExperimentOptions::ExperimentOptions() {
  config.structural.stochastic_blackouts.mean_outage = sim::millis(5);
}

CampaignFlags::CampaignFlags() {
  // Interactive sweeps: a modest population with the full scheme mix
  // and short windows (the library defaults target overnight runs).
  manifest.cells = 256;
  manifest.distribution.window_ms = 100;
  manifest.distribution.schemes = {SchemeKind::kCoEfficient,
                                   SchemeKind::kFspec, SchemeKind::kHosa};
}

std::vector<Row> sweep_rows(int& jobs, std::string& sweep_json) {
  return {number("--jobs", "N",
                 "sweep workers; 0 = COEFF_JOBS, else hardware threads",
                 jobs, 0, kIntMax),
          text("--sweep-json", "PATH", "per-cell wall-time report; '' = none",
               sweep_json)};
}

std::vector<Row> fault_model_rows(fault::FaultModelConfig& fm) {
  fault::GilbertElliottParams& ge = fm.gilbert_elliott;
  return {
      spec("--fault-model", "NAME", "channel fault physics",
           "in {iid|gilbert-elliott|ge|common-mode}",
           assign(fm.kind, fault::parse_fault_model_kind),
           [&fm] { return std::string(fault::to_string(fm.kind)); }),
      number("--ge-p-gb", "X", "Gilbert-Elliott burst entry probability",
             ge.p_good_to_bad, 0.0, 1.0),
      number("--ge-p-bg", "X", "Gilbert-Elliott burst exit probability",
             ge.p_bad_to_good, 0.0, 1.0),
      number("--ge-ber-good", "X", "Gilbert-Elliott good-state BER",
             ge.ber_good, 0.0, 1.0),
      number("--ge-ber-bad", "X", "Gilbert-Elliott bad-state BER", ge.ber_bad,
             0.0, 1.0),
      number("--common-fraction", "X", "common-mode share of fault events",
             fm.common_fraction, 0.0, 1.0),
  };
}

Table run_table(ExperimentOptions& opt) {
  return {"coeffctl [options]",
          "Runs one CoEfficient/FSPEC/HOSA experiment and prints its metrics."
          "\nSubcommands: lint, analyze --prob, campaign VERB (see --help)."
          "\nExit status: 0 ok, 1 the run failed, 2 usage error.",
          experiment_rows(opt)};
}

Table lint_table(LintOptions& opt) {
  return {
      "coeffctl lint [options]",
      "Static analysis instead of a run (DESIGN.md §9).\n"
      "Exit status: 0 clean, 1 error-severity diagnostics, 2 usage error.",
      join({{flag("--trace", "also run one batch, lint its trace", opt.trace),
             text("--sarif", "PATH", "write SARIF 2.1.0 ('-' = stdout)",
                  opt.sarif_path),
             flag("--list-rules", "print the rule catalog", opt.list_rules)},
            experiment_rows(opt)})};
}

Table analyze_table(AnalyzeOptions& opt) {
  return {
      "coeffctl analyze --prob [options]",
      "Analytic P(deadline miss) envelopes of both segments and the\n"
      "analysis.* rules (DESIGN.md §14, §15).\n"
      "Exit status: 0 clean, 1 error-severity diagnostics, 2 usage error.",
      join({{required(flag("--prob", "run the probabilistic pass", opt.prob)),
             flag("--json", "machine-readable result", opt.json),
             text("--sarif", "PATH", "write SARIF 2.1.0 ('-' = stdout)",
                  opt.sarif_path, /*non_empty=*/true),
             text("--campaign", "DIR", "cross-check a finished campaign",
                  opt.campaign_dir, /*non_empty=*/true),
             number("--quantum-us", "N", "Pmf quantization step",
                    opt.quantum_us, std::int64_t{1}, std::int64_t{1'000'000}),
             number("--max-bins", "N", "Pmf grid size", opt.max_bins,
                    std::int64_t{16}, std::int64_t{1'048'576}),
             flag("--no-dyn", "skip the dynamic-segment pass", opt.no_dyn),
             number("--dyn-max-slips", "N", "cycle-slip cap, dynamic model",
                    opt.dyn_max_slips, 1, 1024)},
            experiment_rows(opt)})};
}

Table campaign_table(CampaignFlags& opt) {
  campaign::CampaignManifest& m = opt.manifest;
  campaign::ScenarioDistribution& d = m.distribution;
  return {
      "coeffctl campaign VERB --dir DIR [options]",
      "Crash-safe sharded scenario campaigns (DESIGN.md §13): run starts\n"
      "one, resume continues it after a kill, status shows progress and\n"
      "lints consistency, report aggregates the result rows.\n"
      "Exit status: 0 ok, 1 campaign or lint failure, 2 usage error.",
      {required(choice("VERB", "", "what to do", opt.verb,
                       {{"run", CampaignVerb::kRun},
                        {"resume", CampaignVerb::kResume},
                        {"status", CampaignVerb::kStatus},
                        {"report", CampaignVerb::kReport}})),
       required(text("--dir", "DIR", "campaign directory", opt.dir, true)),
       number("--cells", "N", "run: scenario cells", m.cells, std::int64_t{1},
              kI64Max),
       number("--seed", "N", "run: campaign seed", m.seed, std::uint64_t{0},
              kU64Max),
       number("--shards", "N", "run: worker shards", m.shards, 1, 4096),
       spec("--name", "S", "run: name recorded in the manifest",
            "(no control characters)",
            [&m](std::string_view value) {
              const bool ok =
                  std::none_of(value.begin(), value.end(), [](char c) {
                    return std::iscntrl(static_cast<unsigned char>(c)) != 0;
                  });
              if (ok) m.name = value;
              return ok;
            },
            [&m] { return m.name; }),
       number("--watchdog-ms", "MS", "run: per-cell budget before a retry",
              m.watchdog_ms, std::int64_t{1}, kI64Max),
       number("--max-attempts", "N", "run: attempts before quarantine",
              m.max_attempts, 1, 16),
       number("--backoff-ms", "MS", "run: retry backoff base, doubling",
              m.backoff_base_ms, std::int64_t{0}, kI64Max),
       number("--window-ms", "MS", "run: batch window per cell", d.window_ms,
              std::int64_t{1}, kMaxMillis),
       spec("--schemes", "LIST", "run: scheme mix",
            "(of coefficient|fspec|hosa)",
            assign(d.schemes, campaign::parse_scheme_list),
            [&d] { return campaign::scheme_list(d.schemes); }),
       number("--min-nodes", "N", "run: smallest cluster", d.min_nodes, 1,
              1024),
       number("--max-nodes", "N", "run: largest cluster", d.max_nodes, 1,
              1024),
       number("--min-util", "X", "run: lowest static utilization", d.min_util,
              0.0, 1.0, /*lo_open=*/true),
       number("--max-util", "X", "run: highest static utilization",
              d.max_util, 0.0, 1.0, /*lo_open=*/true),
       flag("--criticality", "run: mixed-criticality axis", d.criticality),
       flag("--no-fsync", "run: skip the group-commit fsyncs (tests only)",
            opt.no_fsync),
       flag("--json", "report: machine-readable aggregate", opt.json),
       text("--out", "PATH", "report: write here, not stdout", opt.out_path),
       flag("--analyze", "report: cross-check vs the P(miss) envelope",
            opt.analyze)}};
}

}  // namespace coeff::cli
