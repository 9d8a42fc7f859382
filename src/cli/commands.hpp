// coeffctl's flag tables and the options they bind, next to the engine so
// fuzz/cli_fuzz drives the tables the binary ships. run = sweep +
// experiment rows; lint and analyze = their own rows + experiment rows;
// campaign = its own rows, with the verb as the positional argument.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/manifest.hpp"
#include "cli/flags.hpp"
#include "core/experiment.hpp"
#include "fault/fault_model.hpp"
#include "sched/criticality.hpp"

namespace coeff::cli {

enum class Workload : std::uint8_t { kBbw, kAcc, kApps, kSynthetic };

/// The experiment rows write straight into `config` wherever a value
/// needs no derivation; the other fields are what coeffctl derives the
/// cluster and the message sets from.
struct ExperimentOptions {
  ExperimentOptions();
  core::ExperimentConfig config;
  core::SchemeKind scheme = core::SchemeKind::kCoEfficient;
  Workload workload = Workload::kBbw;
  std::string statics_csv;
  std::string dynamics_csv;
  int messages = 100;          ///< synthetic static count
  std::int64_t minislots = 0;  ///< 0 = the workload's default
  int burst = 1;               ///< 1 = periodic arrivals
  bool no_dynamics = false;
  std::optional<sched::CriticalitySpec> criticality;
};

struct RunOptions : ExperimentOptions {
  int jobs = 1;
  std::string sweep_json;
};

struct LintOptions : ExperimentOptions {
  bool trace = false;
  bool list_rules = false;
  std::string sarif_path;  ///< "-" = stdout
};

struct AnalyzeOptions : ExperimentOptions {
  bool prob = false;
  bool json = false;
  bool no_dyn = false;
  std::string sarif_path;  ///< "-" = stdout
  std::string campaign_dir;
  std::int64_t quantum_us = 50;
  std::int64_t max_bins = 4096;
  int dyn_max_slips = 64;
};

enum class CampaignVerb : std::uint8_t { kRun, kResume, kStatus, kReport };

struct CampaignFlags {
  CampaignFlags();
  CampaignVerb verb = CampaignVerb::kRun;
  std::string dir;
  std::string out_path;  ///< report: empty = stdout
  bool json = false;
  bool analyze = false;
  bool no_fsync = false;
  campaign::CampaignManifest manifest;
};

/// --jobs and --sweep-json, shared with the figure binaries.
[[nodiscard]] std::vector<Row> sweep_rows(int& jobs, std::string& sweep_json);
/// --fault-model and its parameters, shared with examples/fault_injection.
[[nodiscard]] std::vector<Row> fault_model_rows(fault::FaultModelConfig& fm);

[[nodiscard]] Table run_table(RunOptions& opt);
[[nodiscard]] Table lint_table(LintOptions& opt);
[[nodiscard]] Table analyze_table(AnalyzeOptions& opt);
[[nodiscard]] Table campaign_table(CampaignFlags& opt);

}  // namespace coeff::cli
