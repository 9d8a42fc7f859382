// campaign-short: `coeffctl campaign` over 1000 seeded cells (100 ms
// windows, all three schemes, every channel and structural fault axis,
// process isolation, 4 shards, fsync'd durability), then the
// `campaign report --analyze` path (scan, aggregate, render, analytic
// cross-check). Cells are short, so per-cell set-up dominates. Each
// operation runs in a forked child, so the SlackTable cache the
// cross-check fills dies with it. One caller driving 4 shard workers.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <sstream>

#include "analysis/diagnostic.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/cross_check.hpp"
#include "campaign/lint.hpp"
#include "campaign/manifest.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "layers.hpp"

namespace perfbench {
namespace {

constexpr int kShards = 4;
/// Untraced operations replay every kSampleStride-th cell in-process to
/// time per-cell set-up; the traced pass replays every cell.
constexpr std::int64_t kSampleStride = 16;

campaign::CampaignManifest manifest_for(std::uint64_t seed, std::int64_t cells) {
  campaign::CampaignManifest m;
  m.name = "perfbench";
  m.seed = seed;
  m.cells = cells;
  m.shards = kShards;
  m.isolation = campaign::Isolation::kProcess;
  m.distribution.window_ms = 100;
  m.distribution.schemes = {core::SchemeKind::kCoEfficient,
                            core::SchemeKind::kFspec, core::SchemeKind::kHosa};
  return m;
}

struct RunPlan {
  std::string dir;
  campaign::CampaignManifest manifest;
  std::int64_t replay_stride = kSampleStride;
  /// Run the report's analytic cross-check (about as long as the
  /// campaign itself, so not every operation pays for it).
  bool cross_check = true;
  bool make_it_throw = false;
};

/// Replay cells of a finished campaign in this process, one at a time,
/// checking each against the row the shard wrote.
void replay_cells(const RunPlan& plan, const std::vector<campaign::ResultRow>& rows,
                  ChildReport& report) {
  const Span replay_span("campaign.replay");
  const campaign::ScenarioGenerator generator(plan.manifest.seed,
                                              plan.manifest.distribution);
  campaign::CheckpointWriter writer;
  campaign::CheckpointHeader header;
  header.shards = plan.manifest.shards;
  header.campaign_seed = plan.manifest.seed;
  header.cells = plan.manifest.cells;
  if (!writer.open(plan.dir + "/replay.ckpt", header, /*durable=*/true)) {
    throw std::runtime_error("cannot open the replay checkpoint");
  }
  std::vector<double> setup_s;
  std::vector<double> shard_s(kShards, 0.0);
  std::map<std::string, double> counts;
  WalkTally walk;
  int mismatches = 0;
  for (std::int64_t cell = 0; cell < plan.manifest.cells; cell += plan.replay_stride) {
    const std::int64_t cell_start = now_ns();
    const Span cell_span("campaign.cell");
    campaign::ScenarioSpec spec;
    core::ExperimentConfig config;
    {
      const Span span("campaign.generate");
      spec = generator.spec(cell);
      config = generator.config(spec);
    }
    if (tracer().enabled()) probe_setup_layers(config, spec.scheme, counts);
    const std::int64_t run_start = now_ns();
    const core::ExperimentResult result = traced_run(config, spec.scheme);
    const double run_s = seconds_since(run_start);
    setup_s.push_back(run_s - result.walk_seconds);
    walk.add(result, run_s);
    campaign::ResultRow row;
    {
      const Span span("campaign.row");
      row = campaign::make_row(spec, result);
      (void)campaign::render_row(row);
    }
    for (const auto kind : {campaign::CheckpointRecordKind::kIntent,
                            campaign::CheckpointRecordKind::kDone}) {
      campaign::CheckpointRecord record;
      record.kind = kind;
      record.cell = cell;
      record.attempt = 1;
      const Span span("campaign.checkpoint_append");
      if (!writer.append(record)) throw std::runtime_error("checkpoint append failed");
    }
    const campaign::ResultRow& stored = rows[static_cast<std::size_t>(cell)];
    if (stored.cell != cell || stored.released != row.released ||
        stored.delivered != row.delivered || stored.missed != row.missed ||
        stored.cycles != row.cycles || stored.copies_sent != row.copies_sent) {
      ++mismatches;
    }
    shard_s[static_cast<std::size_t>(cell % kShards)] += seconds_since(cell_start);
  }
  report.number("cell_setup_s", median(setup_s));
  std::string samples;
  for (const double x : setup_s) samples += std::to_string(x) + " ";
  report.text("setup_samples", samples);
  report.number("replay_mismatches", mismatches);
  const double mean = sum(shard_s) / kShards;
  report.number("shard_imbalance",
                mean > 0.0 ? *std::max_element(shard_s.begin(), shard_s.end()) / mean
                           : 0.0);
  std::map<std::string, double> values;
  walk.emit(values);
  for (const auto& [name, value] : values) report.number("v." + name, value);
  for (const auto& [name, value] : counts) report.number("c." + name, value);
  report.number("replayed", static_cast<double>(setup_s.size()));
}

/// The child body: one campaign, its report, lint and replay.
int campaign_once(const RunPlan& plan, ChildReport& report) {
  if (plan.make_it_throw) {
    campaign::ScenarioDistribution bad;
    bad.min_nodes = 0;
    bad.validate();  // the library rejects it
  }
  std::filesystem::remove_all(plan.dir);
  campaign::CampaignOptions options;
  options.dir = plan.dir;
  options.manifest = plan.manifest;
  const std::int64_t start = now_ns();
  campaign::CampaignOutcome outcome;
  {
    const Span span("campaign.run");
    outcome = campaign::CampaignRunner::run(options);
  }
  report.number("campaign_s", seconds_since(start));
  report.number("campaign_rss_mb", std::max(peak_rss_self_mb(), peak_rss_children_mb()));
  if (!outcome.ok) {
    report.text("error", "campaign: " + outcome.error);
    return 4;
  }
  const std::int64_t report_start = now_ns();
  campaign::ResultScan scan;
  campaign::ManifestLoad load;
  {
    const Span span("campaign.scan");
    load = campaign::load_manifest(campaign::manifest_path(plan.dir));
    scan = campaign::scan_results(plan.dir, load.manifest);
  }
  campaign::CampaignAggregate aggregate;
  {
    const Span span("campaign.aggregate");
    aggregate = campaign::aggregate_rows(scan.rows, load.manifest.cells);
  }
  std::string text;
  {
    const Span span("campaign.render");
    text = campaign::render_report_text(aggregate, load.manifest);
  }
  char line[160] = "";
  if (plan.cross_check) {
    analysis::Report findings;
    campaign::CrossCheckSummary summary;
    {
      const Span span("campaign.cross_check");
      summary = campaign::cross_check_prob(load.manifest, scan.rows,
                                           campaign::CrossCheckOptions{}, findings);
    }
    report.number("report_s", seconds_since(report_start));
    std::snprintf(line, sizeof line, "cross-check %zu/%zu %zu | %zu/%zu %zu",
                  summary.checked, summary.eligible, summary.diverged,
                  summary.dyn_checked, summary.dyn_eligible, summary.dyn_diverged);
  }
  report.text("report_digest", digest_hex(text + line));
  report.number("cells_ok", static_cast<double>(aggregate.ok));
  report.number("cycles", static_cast<double>(aggregate.cycles));
  report.number("scan_errors", static_cast<double>(scan.errors.size()));
  {
    const Span span("campaign.lint");
    const analysis::Report lint = campaign::lint_campaign(plan.dir);
    report.number("lint_findings",
                  static_cast<double>(lint.count(analysis::Severity::kError) +
                                      lint.count(analysis::Severity::kWarning)));
  }
  if (plan.replay_stride > 0 && aggregate.ok == plan.manifest.cells &&
      static_cast<std::int64_t>(scan.rows.size()) == plan.manifest.cells) {
    replay_cells(plan, scan.rows, report);
  }
  report.number("rss_mb", std::max(peak_rss_self_mb(), peak_rss_children_mb()));
  std::filesystem::remove_all(plan.dir);
  return 0;
}

/// Check a child's campaign against the gates; returns false on failure.
bool check_child(const ChildResult& child, std::int64_t cells,
                 const std::string& what, WorkloadResult& out) {
  if (!child.ok) {
    const auto it = child.texts.find("error");
    out.fail(what + " failed" + (it != child.texts.end() ? ": " + it->second : ""));
    return false;
  }
  auto number = [&](const char* key) {
    const auto it = child.numbers.find(key);
    return it == child.numbers.end() ? -1.0 : it->second;
  };
  if (number("cells_ok") != static_cast<double>(cells) || number("scan_errors") != 0.0) {
    out.fail(what + ": not every cell is ok");
    return false;
  }
  if (number("lint_findings") != 0.0) {
    out.fail(what + ": campaign lint is not clean");
    return false;
  }
  if (number("replay_mismatches") > 0.0) {
    out.fail(what + ": in-process replay disagrees with the shard rows");
    return false;
  }
  return true;
}

}  // namespace

WorkloadResult run_campaign_short(const Options& options) {
  WorkloadResult out;
  const std::int64_t cells = options.tiny ? 24 : 1000;

  // Stored-digest check: the report of the default-seed campaign.
  {
    const std::string name = std::string("campaign-short.report") +
                             (options.tiny ? ".tiny" : "");
    RunPlan plan;
    plan.dir = options.work_dir + "/campaign-reference";
    plan.manifest = manifest_for(42, options.tiny ? 12 : 200);
    plan.replay_stride = 0;
    ++out.attempted;
    const bool tracing = tracer().enabled();
    tracer().enable(false);
    const ChildResult child =
        run_in_child([&](ChildReport& report) { return campaign_once(plan, report); });
    tracer().enable(tracing);
    if (check_child(child, plan.manifest.cells, "reference campaign", out)) {
      check_reference_digest(options, name, child.texts.at("report_digest"),
                             options.inject_wrong_digest, out);
    }
    if (options.record_digests) return out;
  }

  std::map<std::uint64_t, std::string> report_digest;
  std::vector<double> op_s;
  std::vector<double> campaign_s;
  std::vector<double> report_s;
  std::vector<double> cells_per_s;
  std::vector<double> cycles_per_s;
  std::vector<double> setup_s;
  std::vector<double> rss;
  std::vector<double> campaign_rss;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  std::map<std::string, double> values;
  std::vector<double> imbalance;

  auto run_op = [&](std::int64_t k, bool traced) {
    // Every operation draws a fresh population, except that the second
    // repeats the first, so every run checks that a report repeats
    // byte for byte.
    const std::uint64_t campaign_seed =
        mix64(options.seed * 7919ULL + static_cast<std::uint64_t>(k == 1 ? 0 : k));
    RunPlan plan;
    plan.dir = options.work_dir + "/campaign-" + std::to_string(k);
    plan.manifest = manifest_for(campaign_seed, cells);
    plan.replay_stride = traced ? 1 : kSampleStride;
    plan.cross_check = options.trace || k < 2 || k % 4 == 0;
    plan.make_it_throw = options.inject_throw && k == 1;
    ++out.attempted;
    const bool tracing = tracer().enabled();
    tracer().enable(traced);
    tracer().set_op(static_cast<int>(k));
    ChildResult child;
    {
      const Span span("campaign.op");
      child = run_in_child([&](ChildReport& report) { return campaign_once(plan, report); });
      tracer().adopt(child.spans);
    }
    tracer().enable(tracing);
    const std::string what = "op " + std::to_string(k);
    if (!check_child(child, cells, what, out)) return;
    const std::string digest = child.texts.at("report_digest");
    const auto [it, fresh] = report_digest.emplace(campaign_seed, digest);
    if (!fresh && it->second != digest) {
      out.fail(what + ": same campaign seed rendered a different report");
    }
    const double c_s = child.numbers.at("campaign_s");
    const double r_s = child.numbers.count("report_s") != 0 ? child.numbers.at("report_s") : 0.0;
    (traced ? traced_s : untraced_s) += c_s + r_s;
    if (traced) {
      for (const auto& [key, value] : child.numbers) {
        if (key.rfind("v.", 0) == 0) values[key.substr(2)] = value;
        if (key.rfind("c.", 0) == 0) values[key.substr(2)] = value / child.numbers.at("replayed");
      }
      imbalance.push_back(child.numbers.at("shard_imbalance"));
      values["campaign.cell_setup_s"] = child.numbers.at("cell_setup_s");
      return;
    }
    if (plan.cross_check) {
      op_s.push_back(c_s + r_s);
      report_s.push_back(r_s);
      rss.push_back(child.numbers.at("rss_mb"));
    }
    campaign_s.push_back(c_s);
    campaign_rss.push_back(child.numbers.at("campaign_rss_mb"));
    cells_per_s.push_back(static_cast<double>(cells) / c_s);
    cycles_per_s.push_back(child.numbers.at("cycles") / c_s);
    std::istringstream samples(child.texts.at("setup_samples"));
    for (double x = 0.0; samples >> x;) setup_s.push_back(x);
  };

  const std::int64_t loop_start = now_ns();
  std::int64_t k = 0;
  // Untraced runs need two operations of one seed for the repeat check;
  // the traced pass pairs each operation with an untraced one instead.
  while (k < (options.trace ? 1 : 2) || seconds_since(loop_start) < options.seconds) {
    // The traced pass alternates which of the pair runs first.
    const bool untraced_first = options.trace && k % 2 == 0;
    if (untraced_first) run_op(k, /*traced=*/false);
    run_op(k, options.trace);
    if (options.trace && !untraced_first) run_op(k, /*traced=*/false);
    ++k;
  }

  if (!options.trace) {
    // The report is timed but not gated: its cost is that of the 16
    // cells the cross-check analyses, whose slack tables vary by orders
    // of magnitude with their hyperperiods, so it swings by a quarter
    // from seed to seed. analyze-cold gates that path instead.
    out.metrics = {
        {"setup_s", median(setup_s), "s"},
        {"op_ms_p50", median(campaign_s) * 1e3, "ms"},
        {"work_per_s", median(cells_per_s), "1/s"},
        {"peak_rss_mb", median(campaign_rss), "MB"},
    };
    out.extras = {
        {"cells_per_s", median(cells_per_s), "cells/s"},
        {"report_s", median(report_s), "s"},
        {"campaign_report_ms_p50", median(op_s) * 1e3, "ms"},
        {"peak_rss_mb_with_report", median(rss), "MB"},
        {"sim_cycles_per_s", median(cycles_per_s), "cycles/s"},
        {"ops_timed", static_cast<double>(campaign_s.size()), "count"},
        {"reports_timed", static_cast<double>(report_s.size()), "count"},
    };
    std::string per_op = "campaign s per operation:";
    for (const double x : campaign_s) per_op += " " + std::to_string(x).substr(0, 5);
    out.notes.push_back(per_op);
    return out;
  }

  const Tracer& t = tracer();
  emit_setup_probes(t, values);
  values["campaign.generate_s"] = median(t.durations("campaign.generate"));
  values["campaign.cell_walk_s"] = median(t.durations("flexray.walk"));
  values["campaign.row_s"] = median(t.durations("campaign.row"));
  values["campaign.checkpoint_append_s"] = median(t.durations("campaign.checkpoint_append"));
  values["campaign.shard_imbalance"] = median(imbalance);
  values["campaign.scan_s"] = median(t.durations("campaign.scan"));
  values["campaign.aggregate_s"] = median(t.durations("campaign.aggregate"));
  values["campaign.cross_check_s"] = median(t.durations("campaign.cross_check"));
  values["trace.overhead"] = untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0;
  values["trace.unattributed_share"] =
      t.unattributed_share("campaign.op", sum(t.durations("campaign.op")));
  emit_per_layer(out, values);
  return out;
}

}  // namespace perfbench
