// coeffctl — command-line experiment driver and offline linter.
//
// Runs one scheduling experiment from the shell, loading message sets
// from CSV or using the built-in workloads, and prints the metrics
// summary; the `lint` subcommand instead runs the static analyzer
// (schedule legality, Theorem-1 recheck, slack/RTA cross-checks, and —
// with --trace — protocol conformance of a recorded run) and exits
// nonzero on any error-severity diagnostic. Each subcommand's flags are a
// table in src/cli/commands.cpp. Examples:
//
//   coeffctl --scheme coefficient --workload bbw --ber 1e-7
//   coeffctl --scheme fspec --statics my_matrix.csv --minislots 25
//   coeffctl --scheme hosa --workload synthetic --messages 100
//            --window-ms 1000 --seed 7
//   coeffctl lint --workload apps --sil 3
//   coeffctl lint --statics my_matrix.csv --trace --sarif report.sarif
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/prob_wcrt.hpp"
#include "analysis/schedule_lint.hpp"
#include "analysis/trace_lint.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/cross_check.hpp"
#include "campaign/lint.hpp"
#include "campaign/manifest.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "cli/commands.hpp"
#include "core/experiment.hpp"
#include "net/csv.hpp"
#include "net/workloads.hpp"
#include "sched/criticality.hpp"
#include "sim/trace.hpp"

namespace {

using namespace coeff;

/// Assemble the cluster and message sets the experiment options
/// describe; the rows already wrote every value that needs no
/// derivation into `opt.config`. Throws on bad input (an unreadable
/// CSV, a cluster that cannot hold the minislots).
core::ExperimentConfig build_config(const cli::ExperimentOptions& opt) {
  core::ExperimentConfig config = opt.config;
  const auto minislots = [&opt](std::int64_t workload_default) {
    return opt.minislots > 0 ? opt.minislots : workload_default;
  };
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
        fits_5ms ? core::paper_cluster_dynamic_suite(minislots(50))
                 : core::paper_cluster_apps(minislots(25));
  } else if (opt.workload == cli::Workload::kSynthetic) {
    config.cluster = core::paper_cluster_dynamic_suite(minislots(50));
    sim::Rng rng(config.seed);
    net::SyntheticStaticOptions statics;
    statics.count = static_cast<std::size_t>(opt.messages);
    config.statics = net::synthetic_static(statics, rng);
  } else {
    config.cluster = core::paper_cluster_apps(minislots(25));
    config.statics = opt.workload == cli::Workload::kBbw ? net::brake_by_wire()
                     : opt.workload == cli::Workload::kAcc
                         ? net::adaptive_cruise()
                         : net::brake_by_wire().merged_with(
                               net::adaptive_cruise());
  }

  // Dynamic workload.
  if (!opt.dynamics_csv.empty()) {
    config.dynamics =
        net::load_csv(opt.dynamics_csv).of_kind(net::MessageKind::kDynamic);
  } else if (!opt.no_dynamics) {
    sim::Rng rng(config.seed ^ 0x5DEECE66DULL);
    net::SaeAperiodicOptions sae;
    sae.static_slots =
        static_cast<int>(config.cluster.g_number_of_static_slots);
    config.dynamics = net::sae_aperiodic(sae, rng);
  }
  if (opt.burst > 1) {
    config.arrivals.process = net::ArrivalProcess::kBursty;
    config.arrivals.burst = opt.burst;
  }
  if (opt.criticality.has_value()) {
    config.statics = sched::with_criticality(config.statics, *opt.criticality);
    config.dynamics =
        sched::with_criticality(config.dynamics, *opt.criticality);
  }

  // Stochastic structural processes run over the batch window on this
  // cluster.
  fault::StructuralFaultConfig& s = config.structural;
  if (s.stochastic_crashes.crashes_per_second > 0.0) {
    s.stochastic_crashes.horizon = config.batch_window;
    s.stochastic_crashes.num_nodes =
        static_cast<int>(config.cluster.num_nodes);
  }
  if (s.stochastic_blackouts.outages_per_second > 0.0) {
    s.stochastic_blackouts.horizon = config.batch_window;
  }
  return config;
}

/// Write `text` to the file `path`. False, after saying so on stderr,
/// when the file cannot be opened.
bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "coeffctl: cannot write '%s'\n", path.c_str());
    return false;
  }
  out << text;
  return true;
}

/// Write `report` as SARIF 2.1.0 to `path` ('-' = stdout).
bool write_sarif(const analysis::Report& report, const std::string& path) {
  if (path != "-") return write_file(path, report.render_sarif());
  std::printf("%s\n", report.render_sarif().c_str());
  return true;
}

void print_cross_check(const campaign::CrossCheckSummary& summary) {
  std::printf("cross-check: %zu/%zu eligible cell(s) checked, "
              "%zu diverged | dynamic %zu/%zu checked, %zu diverged\n",
              summary.checked, summary.eligible, summary.diverged,
              summary.dyn_checked, summary.dyn_eligible,
              summary.dyn_diverged);
}

/// `coeffctl lint`: run the offline analyzer over the configured
/// workload (and optionally one recorded batch) instead of reporting
/// metrics. Exit status 0 = clean, 1 = error diagnostics, 2 = usage.
int lint_main(const std::vector<std::string>& args) {
  cli::LintOptions opt;
  if (const auto code =
          cli::early_exit(cli::lint_table(opt), "coeffctl", args)) {
    return *code;
  }
  if (opt.list_rules) {
    std::fputs(analysis::render_rule_list().c_str(), stdout);
    return 0;
  }

  try {
    core::ExperimentConfig config = build_config(opt);
    // The design the scheme runs: its table, plan, goal and discipline.
    const auto setup = campaign::make_prob_setup(config, opt.scheme,
                                                 analysis::ProbWcrtOptions{});
    const analysis::ProbWcrtInput& design = setup->input;

    // A table build that throws is itself a finding (the structural
    // rules will name the root cause; this keeps a diagnostic even if
    // they don't).
    analysis::Report report;
    if (!setup->table.has_value()) {
      report.add("schedule.message-set-valid",
                 "schedule table: " + setup->table_error);
    }
    // The Theorem-1 rules run only where a plan exists (CoEfficient).
    analysis::ScheduleLintInput input;
    input.cluster = design.cluster;
    input.statics = design.statics;
    input.dynamics = &setup->config.dynamics;
    input.table = design.table;
    input.plan = design.plan;
    input.ber = setup->config.ber;
    input.rho = design.rho;
    input.u = design.u;
    report.merge(analysis::lint_schedule(input));

    // --trace: record one batch with the chosen scheme and check the
    // protocol-conformance rules over what actually went on the wire.
    if (opt.trace) {
      sim::Trace trace;
      config.trace = &trace;
      (void)core::run_experiment(config, opt.scheme);
      analysis::TraceLintInput tin;
      tin.trace = &trace;
      tin.cluster = design.cluster;
      tin.discipline = design.discipline;
      tin.initial_degraded = design.plan != nullptr && design.plan->degraded;
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
    if (!opt.sarif_path.empty() && !write_sarif(report, opt.sarif_path)) {
      return 2;
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
int analyze_main(const std::vector<std::string>& args) {
  cli::AnalyzeOptions opt;
  if (const auto code =
          cli::early_exit(cli::analyze_table(opt), "coeffctl", args)) {
    return *code;
  }

  try {
    const core::ExperimentConfig config = build_config(opt);
    const core::SchemeKind scheme = opt.scheme;

    analysis::ProbWcrtOptions prob_options;
    prob_options.quantum = sim::micros(opt.quantum_us);
    prob_options.max_bins = static_cast<std::size_t>(opt.max_bins);
    const auto setup =
        campaign::make_prob_setup(config, scheme, prob_options);
    const analysis::ProbWcrtResult result =
        analysis::analyze_prob_wcrt(setup->input);

    // Dynamic-segment pass (DESIGN.md §15): runs whenever the workload
    // carries dynamic messages, unless --no-dyn opts out.
    const bool run_dyn = setup->has_dynamics && !opt.no_dyn;
    analysis::DynWcrtResult dyn_result;
    if (run_dyn) {
      setup->dyn_input.max_slips = opt.dyn_max_slips;
      dyn_result = analysis::analyze_dyn_wcrt(setup->dyn_input);
    }

    if (opt.json) {
      std::string json = analysis::render_prob_json(setup->input, result);
      if (run_dyn) {
        // Graft the dynamic sections into the top-level object.
        json.pop_back();
        json += ",\"dynamic\":" +
                analysis::render_dyn_json(setup->dyn_input, dyn_result);
        json += ",\"end_to_end_classes\":" +
                analysis::render_class_json(analysis::merge_class_envelopes(
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

    if (!opt.campaign_dir.empty()) {
      const auto load = campaign::load_manifest(
          campaign::manifest_path(opt.campaign_dir));
      if (!load.ok) {
        std::fprintf(stderr, "coeffctl: %s\n", load.error.c_str());
        return 2;
      }
      const campaign::ResultScan scan =
          campaign::scan_results(opt.campaign_dir, load.manifest);
      campaign::CrossCheckOptions cross;
      cross.prob = prob_options;
      print_cross_check(
          campaign::cross_check_prob(load.manifest, scan.rows, cross, report));
    }

    if (!opt.json) {
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
    if (!opt.sarif_path.empty() && !write_sarif(report, opt.sarif_path)) {
      return 2;
    }
    return report.has_errors() ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "coeffctl: %s\n", e.what());
    return 2;
  }
}

// --- campaign subcommand -------------------------------------------------

/// The options of `campaign run`/`resume`; nullopt after printing which
/// failure-injection variable is malformed.
std::optional<campaign::CampaignOptions> campaign_options(
    const cli::CampaignFlags& flags) {
  campaign::CampaignOptions options;
  options.dir = flags.dir;
  options.manifest = flags.manifest;
  options.durable = !flags.no_fsync;
  options.log = [](const std::string& line) {
    std::fprintf(stderr, "%s\n", line.c_str());
  };
  // Deterministic failure-injection hooks for tests and the CI smoke.
  const auto hook = [](const char* name, std::vector<std::int64_t>& cells) {
    auto list = campaign::CampaignRunner::parse_cell_list(std::getenv(name));
    if (!list.has_value()) {
      std::fprintf(stderr,
                   "coeffctl: %s: expected comma-separated cell indices\n",
                   name);
      return false;
    }
    cells = std::move(*list);
    return true;
  };
  if (!hook("COEFF_CAMPAIGN_HANG_CELLS", options.hang_cells) ||
      !hook("COEFF_CAMPAIGN_CRASH_CELLS", options.crash_cells)) {
    return std::nullopt;
  }
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

int campaign_status_main(const cli::CampaignFlags& flags) {
  const auto load =
      campaign::load_manifest(campaign::manifest_path(flags.dir));
  if (!load.ok) {
    std::fprintf(stderr, "coeffctl: %s\n", load.error.c_str());
    return 1;
  }
  const campaign::CampaignManifest& m = load.manifest;
  // Distinct cells: a cell whose row a machine crash lost re-runs and
  // records done again.
  std::set<std::int64_t> done;
  std::set<std::int64_t> quarantined;
  for (int shard = 0; shard < m.shards; ++shard) {
    const auto ckpt = campaign::load_checkpoint(
        campaign::shard_checkpoint_path(flags.dir, shard));
    if (!ckpt.ok) continue;
    for (const auto& record : ckpt.records) {
      if (record.kind == campaign::CheckpointRecordKind::kDone) {
        done.insert(record.cell);
      }
      if (record.kind == campaign::CheckpointRecordKind::kQuarantine) {
        quarantined.insert(record.cell);
      }
    }
  }
  std::printf("campaign : %s\nstatus   : %s\nprogress : %lld/%lld cells "
              "(%lld quarantined)\nshards   : %d (%s isolation)\nseed     "
              ": %llu\n",
              m.name.empty() ? "(unnamed)" : m.name.c_str(),
              m.status.c_str(),
              static_cast<long long>(done.size() + quarantined.size()),
              static_cast<long long>(m.cells),
              static_cast<long long>(quarantined.size()), m.shards,
              campaign::to_string(m.isolation),
              static_cast<unsigned long long>(m.seed));
  const analysis::Report report = campaign::lint_campaign(flags.dir);
  std::printf("%s", report.render_text().c_str());
  std::printf("consistency: %zu error(s), %zu warning(s)\n",
              report.count(analysis::Severity::kError),
              report.count(analysis::Severity::kWarning));
  return report.has_errors() ? 1 : 0;
}

int campaign_report_main(const cli::CampaignFlags& flags) {
  const auto load =
      campaign::load_manifest(campaign::manifest_path(flags.dir));
  if (!load.ok) {
    std::fprintf(stderr, "coeffctl: %s\n", load.error.c_str());
    return 1;
  }
  const campaign::ResultScan scan =
      campaign::scan_results(flags.dir, load.manifest);
  for (const std::string& error : scan.errors) {
    std::fprintf(stderr, "coeffctl: %s\n", error.c_str());
  }
  const campaign::CampaignAggregate aggregate =
      campaign::aggregate_rows(scan.rows, load.manifest.cells);
  const std::string text =
      flags.json ? campaign::render_report_json(aggregate, load.manifest)
                 : campaign::render_report_text(aggregate, load.manifest);
  if (flags.out_path.empty()) {
    std::printf("%s", text.c_str());
  } else if (!write_file(flags.out_path, text)) {
    return 1;
  }
  if (flags.analyze) {
    analysis::Report report;
    print_cross_check(campaign::cross_check_prob(
        load.manifest, scan.rows, campaign::CrossCheckOptions{}, report));
    std::printf("%s", report.render_text().c_str());
    if (report.has_errors()) return 1;
  }
  return 0;
}

int campaign_main(const std::vector<std::string>& args) {
  cli::CampaignFlags flags;
  if (const auto code =
          cli::early_exit(cli::campaign_table(flags), "coeffctl", args)) {
    return *code;
  }
  if (flags.verb == cli::CampaignVerb::kStatus) {
    return campaign_status_main(flags);
  }
  if (flags.verb == cli::CampaignVerb::kReport) {
    return campaign_report_main(flags);
  }
  const auto options = campaign_options(flags);
  if (!options.has_value()) return 2;
  if (flags.verb == cli::CampaignVerb::kRun) {
    return campaign_outcome_main(campaign::CampaignRunner::run(*options));
  }
  return campaign_outcome_main(
      campaign::CampaignRunner::resume(flags.dir, *options));
}

/// Plain `coeffctl [options]`: one experiment, metrics on stdout.
/// Exit status 0 = ok, 1 = the run failed, 2 = usage.
int run_main(const std::vector<std::string>& args) {
  cli::ExperimentOptions opt;
  if (const auto code =
          cli::early_exit(cli::run_table(opt), "coeffctl", args)) {
    return *code;
  }

  try {
    core::ExperimentConfig config = build_config(opt);
    const core::SchemeKind scheme = opt.scheme;

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
    std::string drift;  // every scheduled BER step, in order
    for (const auto& [ber, at] :
         {std::pair{config.ber_step, config.ber_step_at},
          std::pair{config.ber_step2, config.ber_step2_at}}) {
      if (ber < 0.0 || at <= sim::Time::zero()) continue;  // disabled
      drift += analysis::strformat("%sber -> %g at %s",
                                   drift.empty() ? "" : ", ", ber,
                                   sim::to_string(at).c_str());
    }
    if (!drift.empty()) std::printf("drift    : %s\n", drift.c_str());
    if (!config.structural.empty()) {
      std::printf("faults   : %s\n",
                  fault::NodeFaultModel(config.structural,
                                        config.cluster.num_nodes, config.seed)
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
    const core::ExperimentResult result = core::run_experiment(config, scheme);
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

}  // namespace

int main(int argc, char** argv) {
  const std::string_view command = argc >= 2 ? argv[1] : "";
  const auto rest = [&](int skip) {
    return std::vector<std::string>(argv + skip, argv + argc);
  };
  if (command == "lint") return lint_main(rest(2));
  if (command == "analyze") return analyze_main(rest(2));
  if (command == "campaign") return campaign_main(rest(2));
  return run_main(rest(1));
}
