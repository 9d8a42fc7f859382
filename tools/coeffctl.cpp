// coeffctl — command-line experiment driver and offline linter.
//
// Runs one scheduling experiment from the shell, loading message sets
// from CSV or using the built-in workloads, and prints the metrics
// summary; the `lint` subcommand instead runs the static analyzer
// (schedule legality, Theorem-1 recheck, slack/RTA cross-checks, and —
// with --trace — protocol conformance of a recorded run) and exits
// nonzero on any error-severity diagnostic. Examples:
//
//   coeffctl --scheme coefficient --workload bbw --ber 1e-7
//   coeffctl --scheme fspec --statics my_matrix.csv --minislots 25
//   coeffctl --scheme hosa --workload synthetic --messages 100
//            --window-ms 1000 --seed 7
//   coeffctl lint --workload apps --sil 3
//   coeffctl lint --statics my_matrix.csv --trace --sarif report.sarif
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/prob_cli.hpp"
#include "analysis/prob_wcrt.hpp"
#include "analysis/schedule_lint.hpp"
#include "analysis/trace_lint.hpp"
#include "bench_common.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/cross_check.hpp"
#include "campaign/lint.hpp"
#include "campaign/manifest.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "net/csv.hpp"
#include "net/workloads.hpp"
#include "sched/criticality.hpp"
#include "sched/schedule_table.hpp"
#include "sim/trace.hpp"

namespace {

using namespace coeff;

struct CliOptions {
  std::string scheme = "coefficient";
  std::string workload = "bbw";  // bbw | acc | apps | synthetic
  std::string statics_csv;
  std::string dynamics_csv;
  int messages = 100;        // synthetic static count
  std::int64_t minislots = 0;  // 0 = workload default
  double ber = 1e-7;
  int sil = 3;
  std::int64_t window_ms = 1000;
  std::uint64_t seed = 42;
  int burst = 1;
  bool drain = false;
  bool no_dynamics = false;
  int jobs = 1;                // sweep workers (single cell → serial anyway)
  std::string sweep_json;      // empty = no timing report
  fault::FaultModelConfig fault_model;
  std::int64_t ber_step_ms = 0;  // 0 = no step
  double ber_step = -1.0;
  std::int64_t ber_step2_ms = 0;  // 0 = no second step (burst profile)
  double ber_step2 = -1.0;
  bool monitor = false;
  fault::ReliabilityMonitorOptions monitor_opt;

  // --- mixed-criticality modes + energy (DESIGN.md §16) ----------------
  std::string mode_policy;   // empty = protocol off
  std::string criticality;   // empty = kind defaults
  bool power = false;        // per-node DVFS/DPM energy accounting

  // --- structural fault domain -----------------------------------------
  fault::StructuralFaultConfig structural;
  double crash_rate = 0.0;       // stochastic crashes per second (0 = off)
  std::int64_t crash_mttr_ms = 50;
  double outage_rate = 0.0;      // stochastic blackouts per second (0 = off)
  std::int64_t outage_ms = 5;
  int vote = 0;                  // k-replica voting (0 = off)
  bool silent_detect = false;
  int silent_threshold = 2;

  // --- lint subcommand only --------------------------------------------
  bool list_rules = false;
  bool lint_trace = false;      // also run a batch and lint its trace
  std::string sarif_path;       // "-" = stdout
};

void usage() {
  std::puts(
      "coeffctl — run a CoEfficient/FSPEC/HOSA scheduling experiment\n"
      "\n"
      "  --scheme coefficient|fspec|hosa   scheduling scheme (default: coefficient)\n"
      "  --workload bbw|acc|apps|synthetic built-in static workload (default: bbw)\n"
      "  --statics FILE.csv                load static messages from CSV instead\n"
      "  --dynamics FILE.csv               load dynamic messages from CSV\n"
      "  --messages N                      synthetic static message count (default: 100)\n"
      "  --minislots N                     dynamic segment size (default: per workload)\n"
      "  --ber X                           bit error rate (default: 1e-7)\n"
      "  --sil 1..4                        IEC 61508 reliability goal (default: 3)\n"
      "  --window-ms N                     batch window (default: 1000)\n"
      "  --seed N                          RNG seed (default: 42)\n"
      "  --burst N                         aperiodic burst size; 1 = periodic (default)\n"
      "  --drain                           running-time mode (drain the whole batch)\n"
      "  --no-dynamics                     statics only\n"
      "  --fault-model iid|gilbert-elliott|common-mode|iid-counter\n"
      "                                    channel fault physics (default: iid at --ber;\n"
      "                                    iid-counter = counter-based Philox draws,\n"
      "                                    order-independent, same statistics as iid)\n"
      "  --ge-p-gb X / --ge-p-bg X         Gilbert-Elliott burst entry/exit probability\n"
      "  --ge-ber-good X / --ge-ber-bad X  Gilbert-Elliott per-state BERs\n"
      "  --common-fraction X               common-mode share of fault events [0,1]\n"
      "  --ber-step-ms N --ber-step X      step the wire BER to X at N ms (drift)\n"
      "  --ber-step2-ms N --ber-step2 X    second BER step (burst: up then back down)\n"
      "  --monitor                         runtime reliability monitor + online re-plan\n"
      "  --monitor-window N                monitor window in cycles (default: 200)\n"
      "  --monitor-factor X                drift trigger factor (default: 5)\n"
      "  --monitor-cooldown N              re-plan cooldown in cycles (default: 100)\n"
      "  --mode-policy SPEC                mixed-criticality mode-change protocol\n"
      "                                    (needs --monitor): preset off|conservative|\n"
      "                                    aggressive and/or key=value pairs enter-l1,\n"
      "                                    enter-l2, exit, dwell, recovery, burst,\n"
      "                                    window, backlog (e.g. 'aggressive,dwell=10')\n"
      "  --criticality SPEC                ASIL-style levels: static=high,dyn=low and\n"
      "                                    per-id overrides like 7=medium\n"
      "  --power                           per-node DVFS/DPM energy accounting\n"
      "  --crash NODE:START_MS:END_MS      scheduled ECU crash/restart (repeatable)\n"
      "  --blackout A|B:START_MS:END_MS    scheduled channel blackout (repeatable)\n"
      "  --babble NODE:SLOT:START_MS:END_MS[:A|B]\n"
      "                                    babbling-idiot slot jam (both channels\n"
      "                                    unless one is named; repeatable)\n"
      "  --drift NODE:START_MS:END_MS:PPM  clock-drift excursion window (repeatable)\n"
      "  --crash-rate X                    stochastic crashes/s over the window\n"
      "  --crash-mttr-ms N                 mean time to repair (default: 50)\n"
      "  --outage-rate X                   stochastic channel outages/s\n"
      "  --outage-ms N                     mean outage length (default: 5)\n"
      "  --vote K                          k-replica majority voting (odd, >= 3)\n"
      "  --silent-detect                   flag silent nodes + re-plan membership\n"
      "  --silent-threshold N              consecutive silent cycles (default: 2)\n"
      "  --jobs N                          sweep workers (default: 1; 0 = COEFF_JOBS\n"
      "                                    env var, else hardware concurrency)\n"
      "  --sweep-json PATH                 write per-cell wall-time report\n"
      "  --help                            this text\n"
      "\n"
      "coeffctl lint [options] — static analysis instead of a run\n"
      "  accepts the workload/cluster options above, plus:\n"
      "  --trace                           also run one batch and lint the trace\n"
      "  --sarif PATH                      write a SARIF 2.1.0 report ('-' = stdout)\n"
      "  --list-rules                      print the rule catalog and exit\n"
      "  exit status: 0 clean, 1 error-severity diagnostics, 2 usage error\n"
      "\n"
      "coeffctl analyze --prob [options] — probabilistic WCRT verification\n"
      "  (see coeffctl analyze --help)\n"
      "\n"
      "coeffctl campaign run|resume|status|report — crash-safe scenario sweeps\n"
      "  (see coeffctl campaign --help)");
}

void analyze_usage() {
  std::puts(
      "coeffctl analyze --prob — analytic P(deadline miss) verification "
      "(DESIGN.md §14)\n"
      "\n"
      "Builds each static message's response-time distribution under the\n"
      "configured fault model (retransmission-count convolution through\n"
      "slack-stealing interference) and reports the per-message / per-SAE-\n"
      "class P(miss) envelope plus the analysis.* lint rules.\n"
      "\n"
      "  accepts the workload/cluster/fault-model options of a plain run\n"
      "  (--scheme, --workload, --ber, --fault-model, --sil, ...), plus:\n"
      "  --prob                  run the probabilistic pass (required)\n"
      "  --json                  machine-readable result instead of text\n"
      "  --sarif PATH            write lint findings as SARIF 2.1.0 ('-' = stdout)\n"
      "  --campaign DIR          cross-check a finished campaign's measured\n"
      "                          miss ratios against the analytic envelope\n"
      "  --quantum-us N          Pmf quantization step (default: 50)\n"
      "  --max-bins N            Pmf grid size (default: 4096)\n"
      "  --no-dyn                skip the dynamic-segment pass (DESIGN.md §15)\n"
      "  --dyn-max-slips N       cycle-slip cap of the nominal dynamic\n"
      "                          response model (default: 64)\n"
      "  exit status: 0 clean, 1 error-severity diagnostics, 2 usage error");
}

/// The single usage line every bad-invocation path prints (exit 2).
void usage_hint() {
  std::fputs(
      "usage: coeffctl [options] | coeffctl lint [options] | "
      "coeffctl analyze --prob [options] | "
      "coeffctl campaign run|resume|status|report [options] "
      "(try --help)\n",
      stderr);
}

void campaign_usage() {
  std::puts(
      "coeffctl campaign — crash-safe sharded scenario campaigns (DESIGN.md §13)\n"
      "\n"
      "  coeffctl campaign run --dir DIR [options]   start a fresh campaign\n"
      "  coeffctl campaign resume --dir DIR          continue after a crash/kill\n"
      "  coeffctl campaign status --dir DIR          progress + consistency lint\n"
      "  coeffctl campaign report --dir DIR [--json] aggregate the result rows\n"
      "\n"
      "run options:\n"
      "  --cells N               scenario cells to generate (default: 256)\n"
      "  --seed N                campaign seed; cell seeds derive from it (42)\n"
      "  --shards N              worker shards (default: 4)\n"
      "  --isolation process|thread\n"
      "                          process = forked workers, kill-based watchdog\n"
      "                          (default); thread = in-process pool\n"
      "  --name S                campaign name recorded in the manifest\n"
      "  --watchdog-ms N         per-cell budget before the shard is killed\n"
      "                          and the cell retried (default: 30000)\n"
      "  --max-attempts N        attempts before a cell is quarantined (2)\n"
      "  --backoff-ms N          respawn backoff base, doubles per failure (200)\n"
      "  --window-ms N           batch window per cell (default: 100)\n"
      "  --schemes a,b,c         scheme mix: coefficient,fspec,hosa (all)\n"
      "  --min-nodes/--max-nodes N    cluster size range (2..64)\n"
      "  --min-util/--max-util X      static utilization range (0.15..0.70)\n"
      "  --criticality           mixed-criticality axis: per-cell drawn mode\n"
      "                          policy + criticality levels + power model\n"
      "  --no-fsync              skip per-record fsync (tests only)\n"
      "\n"
      "report options:\n"
      "  --json                  machine-readable aggregate\n"
      "  --out PATH              write the report to PATH instead of stdout\n"
      "  --analyze               cross-check measured miss ratios against the\n"
      "                          analytic P(miss) envelope (coeffctl analyze)\n"
      "\n"
      "exit status: 0 ok, 1 campaign/lint failure, 2 usage error");
}

/// Split a colon-separated fault spec ("1:10:30" or "A:5:20").
std::vector<std::string> split_spec(const std::string& spec) {
  std::vector<std::string> parts;
  std::string current;
  for (const char c : spec) {
    if (c == ':') {
      parts.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  parts.push_back(current);
  return parts;
}

std::optional<flexray::ChannelId> parse_channel(const std::string& name) {
  if (name == "A" || name == "a") return flexray::ChannelId::kA;
  if (name == "B" || name == "b") return flexray::ChannelId::kB;
  return std::nullopt;
}

[[noreturn]] void bad_spec(const char* flag, const std::string& spec) {
  std::fprintf(stderr, "coeffctl: bad %s spec '%s' (see --help)\n", flag,
               spec.c_str());
  std::exit(2);
}

void parse_crash_spec(const std::string& spec, CliOptions& opt) {
  const auto parts = split_spec(spec);
  if (parts.size() != 3) bad_spec("--crash", spec);
  opt.structural.crashes.push_back({units::NodeId{std::atoi(parts[0].c_str())},
                                    sim::millis(std::atoll(parts[1].c_str())),
                                    sim::millis(std::atoll(parts[2].c_str()))});
}

void parse_blackout_spec(const std::string& spec, CliOptions& opt) {
  const auto parts = split_spec(spec);
  const auto channel = parts.empty() ? std::nullopt : parse_channel(parts[0]);
  if (parts.size() != 3 || !channel.has_value()) bad_spec("--blackout", spec);
  opt.structural.blackouts.push_back(
      {*channel, sim::millis(std::atoll(parts[1].c_str())),
       sim::millis(std::atoll(parts[2].c_str()))});
}

void parse_babble_spec(const std::string& spec, CliOptions& opt) {
  const auto parts = split_spec(spec);
  if (parts.size() != 4 && parts.size() != 5) bad_spec("--babble", spec);
  fault::BabbleWindow babble;
  babble.babbler = units::NodeId{std::atoi(parts[0].c_str())};
  babble.slot = units::SlotId{std::atoi(parts[1].c_str())};
  babble.at = sim::millis(std::atoll(parts[2].c_str()));
  babble.until = sim::millis(std::atoll(parts[3].c_str()));
  if (parts.size() == 5) {
    babble.channel = parse_channel(parts[4]);
    if (!babble.channel.has_value()) bad_spec("--babble", spec);
  }
  opt.structural.babbles.push_back(babble);
}

void parse_drift_spec(const std::string& spec, CliOptions& opt) {
  const auto parts = split_spec(spec);
  if (parts.size() != 4) bad_spec("--drift", spec);
  opt.structural.drifts.push_back({units::NodeId{std::atoi(parts[0].c_str())},
                                   sim::millis(std::atoll(parts[1].c_str())),
                                   sim::millis(std::atoll(parts[2].c_str())),
                                   std::atof(parts[3].c_str())});
}

bool parse(int argc, char** argv, CliOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "coeffctl: %s needs a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else if (arg == "--scheme") {
      opt.scheme = next("--scheme");
    } else if (arg == "--workload") {
      opt.workload = next("--workload");
    } else if (arg == "--statics") {
      opt.statics_csv = next("--statics");
    } else if (arg == "--dynamics") {
      opt.dynamics_csv = next("--dynamics");
    } else if (arg == "--messages") {
      opt.messages = std::atoi(next("--messages"));
    } else if (arg == "--minislots") {
      opt.minislots = std::atoll(next("--minislots"));
    } else if (arg == "--ber") {
      opt.ber = std::atof(next("--ber"));
    } else if (arg == "--sil") {
      opt.sil = std::atoi(next("--sil"));
    } else if (arg == "--window-ms") {
      opt.window_ms = std::atoll(next("--window-ms"));
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint64_t>(std::atoll(next("--seed")));
    } else if (arg == "--burst") {
      opt.burst = std::atoi(next("--burst"));
    } else if (arg == "--drain") {
      opt.drain = true;
    } else if (arg == "--no-dynamics") {
      opt.no_dynamics = true;
    } else if (arg == "--jobs") {
      opt.jobs = std::atoi(next("--jobs"));
    } else if (arg == "--sweep-json") {
      opt.sweep_json = next("--sweep-json");
    } else if (arg == "--fault-model") {
      const char* name = next("--fault-model");
      const auto kind = fault::parse_fault_model_kind(name);
      if (!kind.has_value()) {
        std::fprintf(stderr, "coeffctl: unknown fault model '%s'\n", name);
        std::exit(2);
      }
      opt.fault_model.kind = *kind;
    } else if (arg == "--ge-p-gb") {
      opt.fault_model.gilbert_elliott.p_good_to_bad = std::atof(next(arg.c_str()));
    } else if (arg == "--ge-p-bg") {
      opt.fault_model.gilbert_elliott.p_bad_to_good = std::atof(next(arg.c_str()));
    } else if (arg == "--ge-ber-good") {
      opt.fault_model.gilbert_elliott.ber_good = std::atof(next(arg.c_str()));
    } else if (arg == "--ge-ber-bad") {
      opt.fault_model.gilbert_elliott.ber_bad = std::atof(next(arg.c_str()));
    } else if (arg == "--common-fraction") {
      opt.fault_model.common_fraction = std::atof(next(arg.c_str()));
    } else if (arg == "--ber-step-ms") {
      opt.ber_step_ms = std::atoll(next(arg.c_str()));
    } else if (arg == "--ber-step") {
      opt.ber_step = std::atof(next(arg.c_str()));
    } else if (arg == "--ber-step2-ms") {
      opt.ber_step2_ms = std::atoll(next(arg.c_str()));
    } else if (arg == "--ber-step2") {
      opt.ber_step2 = std::atof(next(arg.c_str()));
    } else if (arg == "--mode-policy") {
      opt.mode_policy = next(arg.c_str());
    } else if (arg == "--criticality") {
      opt.criticality = next(arg.c_str());
    } else if (arg == "--power") {
      opt.power = true;
    } else if (arg == "--monitor") {
      opt.monitor = true;
    } else if (arg == "--monitor-window") {
      opt.monitor_opt.window_cycles = std::atoi(next(arg.c_str()));
    } else if (arg == "--monitor-factor") {
      opt.monitor_opt.trigger_factor = std::atof(next(arg.c_str()));
    } else if (arg == "--monitor-cooldown") {
      opt.monitor_opt.cooldown_cycles = std::atoi(next(arg.c_str()));
    } else if (arg == "--crash") {
      parse_crash_spec(next(arg.c_str()), opt);
    } else if (arg == "--blackout") {
      parse_blackout_spec(next(arg.c_str()), opt);
    } else if (arg == "--babble") {
      parse_babble_spec(next(arg.c_str()), opt);
    } else if (arg == "--drift") {
      parse_drift_spec(next(arg.c_str()), opt);
    } else if (arg == "--crash-rate") {
      opt.crash_rate = std::atof(next(arg.c_str()));
    } else if (arg == "--crash-mttr-ms") {
      opt.crash_mttr_ms = std::atoll(next(arg.c_str()));
    } else if (arg == "--outage-rate") {
      opt.outage_rate = std::atof(next(arg.c_str()));
    } else if (arg == "--outage-ms") {
      opt.outage_ms = std::atoll(next(arg.c_str()));
    } else if (arg == "--vote") {
      opt.vote = std::atoi(next(arg.c_str()));
    } else if (arg == "--silent-detect") {
      opt.silent_detect = true;
    } else if (arg == "--silent-threshold") {
      opt.silent_threshold = std::atoi(next(arg.c_str()));
    } else if (arg == "--trace") {
      opt.lint_trace = true;
    } else if (arg == "--sarif") {
      opt.sarif_path = next("--sarif");
    } else if (arg == "--list-rules") {
      opt.list_rules = true;
    } else {
      std::fprintf(stderr, "coeffctl: unknown flag '%s'\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Assemble the cluster + message sets + fault/monitor settings from the
/// CLI options (shared by the run and lint paths). Throws on bad input;
/// returns false only for an unknown workload/scheme name.
bool build_config(const CliOptions& opt, core::ExperimentConfig& config) {
    // Cluster + static workload.
    if (!opt.statics_csv.empty()) {
      // A matrix file may carry both kinds; keep the static rows here.
      config.statics =
          net::load_csv(opt.statics_csv).of_kind(net::MessageKind::kStatic);
      // Pick a cluster whose cycle divides every period: the 5 ms
      // dynamic-suite cycle when possible, else the 1 ms app cycle.
      bool fits_5ms = true;
      for (const auto& m : config.statics.messages()) {
        if (m.period % sim::millis(5) != sim::Time::zero()) fits_5ms = false;
      }
      config.cluster =
          fits_5ms ? core::paper_cluster_dynamic_suite(
                         opt.minislots > 0 ? opt.minislots : 50)
                   : core::paper_cluster_apps(
                         opt.minislots > 0 ? opt.minislots : 25);
    } else if (opt.workload == "bbw" || opt.workload == "acc" ||
               opt.workload == "apps") {
      config.cluster = core::paper_cluster_apps(
          opt.minislots > 0 ? opt.minislots : 25);
      config.statics = opt.workload == "bbw" ? net::brake_by_wire()
                       : opt.workload == "acc"
                           ? net::adaptive_cruise()
                           : net::brake_by_wire().merged_with(
                                 net::adaptive_cruise());
    } else if (opt.workload == "synthetic") {
      config.cluster = core::paper_cluster_dynamic_suite(
          opt.minislots > 0 ? opt.minislots : 50);
      sim::Rng rng(opt.seed);
      net::SyntheticStaticOptions statics;
      statics.count = static_cast<std::size_t>(opt.messages);
      config.statics = net::synthetic_static(statics, rng);
    } else {
      std::fprintf(stderr, "coeffctl: unknown workload '%s'\n",
                   opt.workload.c_str());
      return false;
    }

    // Dynamic workload.
    if (!opt.dynamics_csv.empty()) {
      config.dynamics =
          net::load_csv(opt.dynamics_csv).of_kind(net::MessageKind::kDynamic);
    } else if (!opt.no_dynamics) {
      sim::Rng rng(opt.seed ^ 0x5DEECE66DULL);
      net::SaeAperiodicOptions sae;
      sae.static_slots =
          static_cast<int>(config.cluster.g_number_of_static_slots);
      config.dynamics = net::sae_aperiodic(sae, rng);
    }
    if (opt.burst > 1) {
      config.arrivals.process = net::ArrivalProcess::kBursty;
      config.arrivals.burst = opt.burst;
    }

    config.ber = opt.ber;
    config.sil = static_cast<fault::Sil>(opt.sil);
    config.batch_window = sim::millis(opt.window_ms);
    config.seed = opt.seed;
    config.drain_batch = opt.drain;
    config.fault_model = opt.fault_model;
    if (opt.ber_step_ms > 0 && opt.ber_step >= 0.0) {
      config.ber_step_at = sim::millis(opt.ber_step_ms);
      config.ber_step = opt.ber_step;
    }
    if (opt.ber_step2_ms > 0 && opt.ber_step2 >= 0.0) {
      config.ber_step2_at = sim::millis(opt.ber_step2_ms);
      config.ber_step2 = opt.ber_step2;
    }
    config.enable_monitor = opt.monitor;
    config.monitor = opt.monitor_opt;

    // Mixed-criticality modes + energy (DESIGN.md §16).
    if (!opt.mode_policy.empty()) {
      const auto policy = sched::parse_mode_policy(opt.mode_policy);
      if (!policy.has_value()) {
        std::fprintf(stderr, "coeffctl: bad --mode-policy '%s'\n",
                     opt.mode_policy.c_str());
        return false;
      }
      config.mode_policy = *policy;
    }
    if (!opt.criticality.empty()) {
      const auto crit = sched::parse_criticality_spec(opt.criticality);
      if (!crit.has_value()) {
        std::fprintf(stderr, "coeffctl: bad --criticality '%s'\n",
                     opt.criticality.c_str());
        return false;
      }
      config.statics = sched::with_criticality(config.statics, *crit);
      config.dynamics = sched::with_criticality(config.dynamics, *crit);
    }
    config.power.enabled = opt.power;

    // Structural fault domain: scheduled windows pass through verbatim;
    // stochastic processes run over the batch window on this cluster.
    config.structural = opt.structural;
    if (opt.crash_rate > 0.0) {
      config.structural.stochastic_crashes.crashes_per_second = opt.crash_rate;
      config.structural.stochastic_crashes.mean_time_to_repair =
          sim::millis(opt.crash_mttr_ms);
      config.structural.stochastic_crashes.horizon = config.batch_window;
      config.structural.stochastic_crashes.num_nodes =
          static_cast<int>(config.cluster.num_nodes);
    }
    if (opt.outage_rate > 0.0) {
      config.structural.stochastic_blackouts.outages_per_second =
          opt.outage_rate;
      config.structural.stochastic_blackouts.mean_outage =
          sim::millis(opt.outage_ms);
      config.structural.stochastic_blackouts.horizon = config.batch_window;
    }
    config.vote_replicas = opt.vote;
    config.silent_node_detection = opt.silent_detect;
    config.silent_cycle_threshold = opt.silent_threshold;
    return true;
}

bool parse_scheme(const CliOptions& opt, core::SchemeKind& scheme) {
  if (opt.scheme == "coefficient") {
    scheme = core::SchemeKind::kCoEfficient;
  } else if (opt.scheme == "fspec") {
    scheme = core::SchemeKind::kFspec;
  } else if (opt.scheme == "hosa") {
    scheme = core::SchemeKind::kHosa;
  } else {
    std::fprintf(stderr, "coeffctl: unknown scheme '%s'\n",
                 opt.scheme.c_str());
    return false;
  }
  return true;
}

/// `coeffctl lint`: run the offline analyzer over the configured
/// workload (and optionally one recorded batch) instead of reporting
/// metrics. Exit status 0 = clean, 1 = error diagnostics, 2 = usage.
int lint_main(int argc, char** argv) {
  CliOptions opt;
  if (!parse(argc, argv, opt)) {
    usage_hint();
    return 2;
  }
  if (opt.list_rules) {
    std::fputs(analysis::render_rule_list().c_str(), stdout);
    return 0;
  }

  try {
    core::ExperimentConfig config;
    core::SchemeKind scheme;
    if (!build_config(opt, config) || !parse_scheme(opt, scheme)) return 2;

    const double rho = config.rho > 0.0
                           ? config.rho
                           : fault::reliability_goal(config.sil, config.u);

    analysis::Report report;

    // The schedule table and retransmission plan under analysis. A build
    // that throws is itself a finding (the structural rules will name
    // the root cause; the catch keeps a diagnostic even if they don't).
    std::optional<sched::StaticScheduleTable> table;
    try {
      table = sched::StaticScheduleTable::build(config.statics,
                                                config.cluster);
    } catch (const std::exception& e) {
      report.add("schedule.message-set-valid",
                 std::string("schedule table: ") + e.what());
    }
    fault::SolverOptions solver;
    solver.ber = config.ber;
    solver.rho = rho;
    solver.u = config.u;
    solver.max_copies_per_message = config.max_copies;
    const fault::RetransmissionPlan plan =
        fault::solve_differentiated(config.statics, solver);

    analysis::ScheduleLintInput input;
    input.cluster = &config.cluster;
    input.statics = &config.statics;
    input.dynamics = &config.dynamics;
    input.table = table.has_value() ? &*table : nullptr;
    input.plan = &plan;
    input.ber = config.ber;
    input.rho = rho;
    input.u = config.u;
    report.merge(analysis::lint_schedule(input));

    // --trace: record one batch with the chosen scheme and check the
    // protocol-conformance rules over what actually went on the wire.
    if (opt.lint_trace) {
      sim::Trace trace;
      config.trace = &trace;
      (void)core::run_experiment(config, scheme);
      analysis::TraceLintInput tin;
      tin.trace = &trace;
      tin.cluster = &config.cluster;
      tin.discipline = scheme == core::SchemeKind::kCoEfficient
                           ? analysis::RetxDiscipline::kPlanned
                       : scheme == core::SchemeKind::kFspec
                           ? analysis::RetxDiscipline::kRounds
                           : analysis::RetxDiscipline::kMirrored;
      tin.initial_degraded = plan.degraded;
      report.merge(analysis::lint_trace(tin));
    }

    std::printf("%s", report.render_text().c_str());
    std::printf("coeff-lint: %zu error(s), %zu warning(s), %zu note(s) over "
                "%zu rules [%zu static + %zu dynamic messages, %s]\n",
                report.count(analysis::Severity::kError),
                report.count(analysis::Severity::kWarning),
                report.count(analysis::Severity::kNote),
                analysis::rule_catalog().size(), config.statics.size(),
                config.dynamics.size(),
                flexray::describe(config.cluster).c_str());
    if (!opt.sarif_path.empty()) {
      const std::string sarif = report.render_sarif();
      if (opt.sarif_path == "-") {
        std::printf("%s\n", sarif.c_str());
      } else {
        std::ofstream out(opt.sarif_path, std::ios::binary);
        if (!out) {
          std::fprintf(stderr, "coeffctl: cannot write '%s'\n",
                       opt.sarif_path.c_str());
          return 2;
        }
        out << sarif;
      }
    }
    return report.has_errors() ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coeffctl: %s\n", e.what());
    return 2;
  }
}

// --- analyze subcommand --------------------------------------------------

/// `coeffctl analyze --prob`: the design-time probabilistic WCRT
/// verifier. Exit status mirrors lint: 0 clean, 1 error diagnostics,
/// 2 usage.
int analyze_main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  const analysis::ProbCliParse cli = analysis::parse_prob_cli(args);
  if (!cli.ok()) {
    std::fprintf(stderr, "coeffctl: %s\n", cli.error.c_str());
    usage_hint();
    return 2;
  }
  if (cli.options.help) {
    analyze_usage();
    return 0;
  }

  // Forward the workload/cluster/fault tokens to the base parser.
  std::vector<char*> base_argv;
  base_argv.push_back(argv[0]);  // program name slot (parse skips it)
  std::vector<std::string> passthrough = cli.passthrough;
  for (std::string& token : passthrough) base_argv.push_back(token.data());
  CliOptions opt;
  if (!parse(static_cast<int>(base_argv.size()), base_argv.data(), opt)) {
    usage_hint();
    return 2;
  }

  try {
    core::ExperimentConfig config;
    core::SchemeKind scheme;
    if (!build_config(opt, config) || !parse_scheme(opt, scheme)) return 2;

    analysis::ProbWcrtOptions prob_options;
    prob_options.quantum = sim::micros(cli.options.quantum_us);
    prob_options.max_bins =
        static_cast<std::size_t>(cli.options.max_bins);
    const auto setup =
        campaign::make_prob_setup(config, scheme, prob_options);
    const analysis::ProbWcrtResult result =
        analysis::analyze_prob_wcrt(setup->input);

    // Dynamic-segment pass (DESIGN.md §15): runs whenever the workload
    // carries dynamic messages, unless --no-dyn opts out.
    const bool run_dyn = setup->has_dynamics && !cli.options.no_dyn;
    analysis::DynWcrtResult dyn_result;
    if (run_dyn) {
      setup->dyn_input.max_slips =
          static_cast<int>(cli.options.dyn_max_slips);
      dyn_result = analysis::analyze_dyn_wcrt(setup->dyn_input);
    }

    if (cli.options.json) {
      std::string json = analysis::render_prob_json(setup->input, result);
      if (run_dyn) {
        // Graft the dynamic sections into the top-level object.
        json.pop_back();
        json += ",\"dynamic\":" +
                analysis::render_dyn_json(setup->dyn_input, dyn_result);
        json += ",\"end_to_end_classes\":" +
                analysis::render_end_to_end_json(analysis::merge_class_envelopes(
                    result.classes, dyn_result.classes));
        json += '}';
      }
      std::printf("%s\n", json.c_str());
    } else {
      std::printf("%s",
                  analysis::render_prob_text(setup->input, result).c_str());
      if (run_dyn) {
        std::printf(
            "%s",
            analysis::render_dyn_text(setup->dyn_input, dyn_result).c_str());
        std::printf("%s", analysis::render_end_to_end_text(
                              analysis::merge_class_envelopes(
                                  result.classes, dyn_result.classes))
                              .c_str());
      }
    }

    analysis::Report report = analysis::lint_prob(setup->input, result);
    if (run_dyn) {
      report.merge(analysis::lint_dyn(setup->dyn_input, dyn_result));
    }

    if (!cli.options.campaign_dir.empty()) {
      const auto load = campaign::load_manifest(
          campaign::manifest_path(cli.options.campaign_dir));
      if (!load.ok) {
        std::fprintf(stderr, "coeffctl: %s\n", load.error.c_str());
        return 2;
      }
      const campaign::ResultScan scan =
          campaign::scan_results(cli.options.campaign_dir, load.manifest);
      campaign::CrossCheckOptions cross;
      cross.prob = prob_options;
      const campaign::CrossCheckSummary summary = campaign::cross_check_prob(
          load.manifest, scan.rows, cross, report);
      std::printf("cross-check: %zu/%zu eligible cell(s) checked, "
                  "%zu diverged | dynamic %zu/%zu checked, %zu diverged\n",
                  summary.checked, summary.eligible, summary.diverged,
                  summary.dyn_checked, summary.dyn_eligible,
                  summary.dyn_diverged);
    }

    if (!cli.options.json) {
      std::printf("%s", report.render_text().c_str());
      std::printf("coeff-analyze: %zu error(s), %zu warning(s), %zu note(s) "
                  "[%s, %zu static + %zu dynamic messages]\n",
                  report.count(analysis::Severity::kError),
                  report.count(analysis::Severity::kWarning),
                  report.count(analysis::Severity::kNote),
                  analysis::to_string(setup->input.discipline),
                  config.statics.size(),
                  run_dyn ? config.dynamics.size() : std::size_t{0});
    }
    if (!cli.options.sarif_path.empty()) {
      const std::string sarif = report.render_sarif();
      if (cli.options.sarif_path == "-") {
        std::printf("%s\n", sarif.c_str());
      } else {
        std::ofstream out(cli.options.sarif_path, std::ios::binary);
        if (!out) {
          std::fprintf(stderr, "coeffctl: cannot write '%s'\n",
                       cli.options.sarif_path.c_str());
          return 2;
        }
        out << sarif;
      }
    }
    return report.has_errors() ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coeffctl: %s\n", e.what());
    return 2;
  }
}

// --- campaign subcommand -------------------------------------------------

struct CampaignCli {
  std::string verb;
  std::string dir;
  std::string out_path;
  bool json = false;
  bool durable = true;
  bool analyze = false;  // report: cross-check vs the analytic envelope
  campaign::CampaignManifest manifest;
};

/// Parse the `campaign <verb>` flags. Returns false (after printing the
/// offending flag) on any usage error; --help prints and exits 0.
bool parse_campaign(int argc, char** argv, CampaignCli& cli) {
  campaign::CampaignManifest& m = cli.manifest;
  campaign::ScenarioDistribution& d = m.distribution;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "coeffctl: %s needs a value\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      campaign_usage();
      std::exit(0);
    } else if (cli.verb.empty() && !arg.empty() && arg[0] != '-') {
      if (arg != "run" && arg != "resume" && arg != "status" &&
          arg != "report") {
        std::fprintf(stderr, "coeffctl: unknown campaign verb '%s'\n",
                     arg.c_str());
        return false;
      }
      cli.verb = arg;
    } else if (arg == "--dir") {
      cli.dir = next("--dir");
    } else if (arg == "--cells") {
      m.cells = std::atoll(next("--cells"));
    } else if (arg == "--seed") {
      m.seed = static_cast<std::uint64_t>(std::atoll(next("--seed")));
    } else if (arg == "--shards") {
      m.shards = std::atoi(next("--shards"));
    } else if (arg == "--name") {
      m.name = next("--name");
    } else if (arg == "--isolation") {
      const std::string name = next("--isolation");
      if (name == "process") {
        m.isolation = campaign::Isolation::kProcess;
      } else if (name == "thread") {
        m.isolation = campaign::Isolation::kThread;
      } else {
        std::fprintf(stderr, "coeffctl: unknown isolation '%s'\n",
                     name.c_str());
        return false;
      }
    } else if (arg == "--watchdog-ms") {
      m.watchdog_ms = std::atoll(next("--watchdog-ms"));
    } else if (arg == "--max-attempts") {
      m.max_attempts = std::atoi(next("--max-attempts"));
    } else if (arg == "--backoff-ms") {
      m.backoff_base_ms = std::atoll(next("--backoff-ms"));
    } else if (arg == "--window-ms") {
      d.window_ms = std::atoll(next("--window-ms"));
    } else if (arg == "--schemes") {
      d.schemes.clear();
      const std::string list = next("--schemes");
      std::size_t at = 0;
      while (at <= list.size()) {
        auto comma = list.find(',', at);
        if (comma == std::string::npos) comma = list.size();
        const auto scheme = campaign::parse_scheme_tag(
            std::string_view(list).substr(at, comma - at));
        if (!scheme.has_value()) {
          std::fprintf(stderr, "coeffctl: unknown scheme in --schemes '%s'\n",
                       list.c_str());
          return false;
        }
        d.schemes.push_back(*scheme);
        if (comma == list.size()) break;
        at = comma + 1;
      }
    } else if (arg == "--min-nodes") {
      d.min_nodes = std::atoi(next("--min-nodes"));
    } else if (arg == "--max-nodes") {
      d.max_nodes = std::atoi(next("--max-nodes"));
    } else if (arg == "--min-util") {
      d.min_util = std::atof(next("--min-util"));
    } else if (arg == "--max-util") {
      d.max_util = std::atof(next("--max-util"));
    } else if (arg == "--criticality") {
      d.criticality = true;
    } else if (arg == "--no-fsync") {
      cli.durable = false;
    } else if (arg == "--json") {
      cli.json = true;
    } else if (arg == "--analyze") {
      cli.analyze = true;
    } else if (arg == "--out") {
      cli.out_path = next("--out");
    } else {
      std::fprintf(stderr, "coeffctl: unknown flag '%s'\n", arg.c_str());
      return false;
    }
  }
  if (cli.verb.empty()) {
    std::fprintf(stderr,
                 "coeffctl: campaign needs a verb (run|resume|status|report)\n");
    return false;
  }
  if (cli.dir.empty()) {
    std::fprintf(stderr, "coeffctl: campaign %s needs --dir\n",
                 cli.verb.c_str());
    return false;
  }
  return true;
}

campaign::CampaignOptions campaign_options(const CampaignCli& cli) {
  campaign::CampaignOptions options;
  options.dir = cli.dir;
  options.manifest = cli.manifest;
  options.durable = cli.durable;
  options.log = [](const std::string& line) {
    std::fprintf(stderr, "%s\n", line.c_str());
  };
  // Deterministic failure-injection hooks for tests and the CI smoke.
  options.hang_cells = campaign::CampaignRunner::parse_cell_list(
      std::getenv("COEFF_CAMPAIGN_HANG_CELLS"));
  options.crash_cells = campaign::CampaignRunner::parse_cell_list(
      std::getenv("COEFF_CAMPAIGN_CRASH_CELLS"));
  return options;
}

int campaign_outcome_main(const campaign::CampaignOutcome& outcome) {
  if (!outcome.ok) {
    std::fprintf(stderr, "coeffctl: campaign failed: %s\n",
                 outcome.error.c_str());
    return 1;
  }
  std::printf("campaign: %lld/%lld cells done, %lld quarantined, "
              "%lld respawns%s\n",
              static_cast<long long>(outcome.completed),
              static_cast<long long>(outcome.total_cells),
              static_cast<long long>(outcome.quarantined),
              static_cast<long long>(outcome.respawns),
              outcome.degraded ? " (degraded: result detail shed)" : "");
  return 0;
}

int campaign_status_main(const CampaignCli& cli) {
  const auto load =
      campaign::load_manifest(campaign::manifest_path(cli.dir));
  if (!load.ok) {
    std::fprintf(stderr, "coeffctl: %s\n", load.error.c_str());
    return 1;
  }
  const campaign::CampaignManifest& m = load.manifest;
  std::int64_t done = 0;
  std::int64_t quarantined = 0;
  for (int shard = 0; shard < m.shards; ++shard) {
    const auto ckpt = campaign::load_checkpoint(
        campaign::shard_checkpoint_path(cli.dir, shard));
    if (!ckpt.ok) continue;
    for (const auto& record : ckpt.records) {
      if (record.kind == campaign::CheckpointRecordKind::kDone) ++done;
      if (record.kind == campaign::CheckpointRecordKind::kQuarantine) {
        ++quarantined;
      }
    }
  }
  std::printf("campaign : %s\nstatus   : %s\nprogress : %lld/%lld cells "
              "(%lld quarantined)\nshards   : %d (%s isolation)\nseed     "
              ": %llu\n",
              m.name.empty() ? "(unnamed)" : m.name.c_str(),
              m.status.c_str(), static_cast<long long>(done + quarantined),
              static_cast<long long>(m.cells),
              static_cast<long long>(quarantined), m.shards,
              campaign::to_string(m.isolation),
              static_cast<unsigned long long>(m.seed));
  const analysis::Report report = campaign::lint_campaign(cli.dir);
  std::printf("%s", report.render_text().c_str());
  std::printf("consistency: %zu error(s), %zu warning(s)\n",
              report.count(analysis::Severity::kError),
              report.count(analysis::Severity::kWarning));
  return report.has_errors() ? 1 : 0;
}

int campaign_report_main(const CampaignCli& cli) {
  const auto load =
      campaign::load_manifest(campaign::manifest_path(cli.dir));
  if (!load.ok) {
    std::fprintf(stderr, "coeffctl: %s\n", load.error.c_str());
    return 1;
  }
  const campaign::ResultScan scan =
      campaign::scan_results(cli.dir, load.manifest);
  for (const std::string& error : scan.errors) {
    std::fprintf(stderr, "coeffctl: %s\n", error.c_str());
  }
  const campaign::CampaignAggregate aggregate =
      campaign::aggregate_rows(scan.rows, load.manifest.cells);
  const std::string text =
      cli.json ? campaign::render_report_json(aggregate, load.manifest)
               : campaign::render_report_text(aggregate, load.manifest);
  if (cli.out_path.empty()) {
    std::printf("%s", text.c_str());
  } else {
    std::ofstream out(cli.out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "coeffctl: cannot write '%s'\n",
                   cli.out_path.c_str());
      return 1;
    }
    out << text;
  }
  if (cli.analyze) {
    analysis::Report report;
    const campaign::CrossCheckSummary summary = campaign::cross_check_prob(
        load.manifest, scan.rows, campaign::CrossCheckOptions{}, report);
    std::printf("cross-check: %zu/%zu eligible cell(s) checked, "
                "%zu diverged | dynamic %zu/%zu checked, %zu diverged\n",
                summary.checked, summary.eligible, summary.diverged,
                summary.dyn_checked, summary.dyn_eligible,
                summary.dyn_diverged);
    std::printf("%s", report.render_text().c_str());
    if (report.has_errors()) return 1;
  }
  return 0;
}

int campaign_main(int argc, char** argv) {
  CampaignCli cli;
  // CLI defaults tuned for interactive sweeps: a modest population with
  // the full scheme mix and short windows (the library defaults target
  // single-scheme overnight campaigns).
  cli.manifest.cells = 256;
  cli.manifest.distribution.window_ms = 100;
  cli.manifest.distribution.schemes = {core::SchemeKind::kCoEfficient,
                                       core::SchemeKind::kFspec,
                                       core::SchemeKind::kHosa};
  if (!parse_campaign(argc, argv, cli)) {
    usage_hint();
    return 2;
  }
  if (cli.verb == "status") return campaign_status_main(cli);
  if (cli.verb == "report") return campaign_report_main(cli);
  if (cli.verb == "run") {
    return campaign_outcome_main(
        campaign::CampaignRunner::run(campaign_options(cli)));
  }
  campaign::CampaignOptions overrides = campaign_options(cli);
  return campaign_outcome_main(
      campaign::CampaignRunner::resume(cli.dir, overrides));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "lint") == 0) {
    return lint_main(argc - 1, argv + 1);
  }
  if (argc >= 2 && std::strcmp(argv[1], "analyze") == 0) {
    return analyze_main(argc - 1, argv + 1);
  }
  if (argc >= 2 && std::strcmp(argv[1], "campaign") == 0) {
    return campaign_main(argc - 1, argv + 1);
  }
  if (argc >= 2 && argv[1][0] != '-') {
    std::fprintf(stderr, "coeffctl: unknown subcommand '%s'\n", argv[1]);
    usage_hint();
    return 2;
  }
  CliOptions opt;
  if (!parse(argc, argv, opt)) {
    usage_hint();
    return 2;
  }

  try {
    core::ExperimentConfig config;
    core::SchemeKind scheme;
    if (!build_config(opt, config) || !parse_scheme(opt, scheme)) return 2;

    fault::FaultModelConfig header_fm = config.fault_model;
    header_fm.ber = config.ber;  // mirror run_experiment's single-knob rule
    std::printf("scheme   : %s\ncluster  : %s\nworkload : %zu static + %zu "
                "dynamic messages\nfault    : %s seed=%llu%s\n",
                core::to_string(scheme),
                flexray::describe(config.cluster).c_str(),
                config.statics.size(), config.dynamics.size(),
                fault::describe(header_fm).c_str(),
                static_cast<unsigned long long>(config.seed),
                config.enable_monitor ? " monitor=on" : "");
    if (config.ber_step >= 0.0 && config.ber_step_at > sim::Time::zero()) {
      std::printf("drift    : ber -> %g at %s\n", config.ber_step,
                  sim::to_string(config.ber_step_at).c_str());
    }
    if (!config.structural.empty()) {
      config.structural.validate();
      std::printf("faults   : %s\n",
                  fault::NodeFaultModel(config.structural, config.seed)
                      .describe()
                      .c_str());
    }
    if (config.vote_replicas > 0) {
      std::printf("voting   : %d-replica majority\n", config.vote_replicas);
    }
    if (config.silent_node_detection) {
      std::printf("detect   : silent nodes after %d cycle(s)\n",
                  config.silent_cycle_threshold);
    }
    std::printf("\n");
    bench::BenchOptions sweep_opt;
    sweep_opt.jobs = opt.jobs;
    sweep_opt.sweep_json = opt.sweep_json;
    const auto report = bench::run_sweep(
        "coeffctl", {{config, scheme, core::to_string(scheme)}}, sweep_opt);
    const auto& result = report.cells.front().result;
    std::printf("%s", result.run.summary().c_str());
    std::printf("reliability: target=%.10f scheduled=%.10f\n",
                result.rho_target, result.reliability_scheduled);
    if (!result.drained) {
      std::printf("note: drain cap reached before the batch completed\n");
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coeffctl: %s\n", e.what());
    return 1;
  }
}
