#include "campaign/lint.hpp"

#include <sys/stat.h>

#include <map>
#include <set>

#include "campaign/checkpoint.hpp"
#include "campaign/manifest.hpp"
#include "campaign/report.hpp"

namespace coeff::campaign {

namespace {

constexpr const char* kRule = "campaign.manifest-consistency";

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

analysis::Location cell_loc(std::int64_t cell) {
  analysis::Location loc;
  loc.record = cell;
  return loc;
}

}  // namespace

analysis::Report lint_campaign(const std::string& dir) {
  analysis::Report report;
  const ManifestLoad manifest_load = load_manifest(manifest_path(dir));
  if (!manifest_load.ok) {
    report.add(kRule, "manifest unusable: " + manifest_load.error);
    return report;  // nothing else can be cross-checked
  }
  const CampaignManifest& manifest = manifest_load.manifest;
  const bool finished =
      manifest.status == "complete" || manifest.status == "degraded";

  std::set<std::int64_t> done;
  std::set<std::int64_t> hinted;  ///< done past the last commit: hints
  std::set<std::int64_t> quarantined;
  for (int shard = 0; shard < manifest.shards; ++shard) {
    const std::string path = shard_checkpoint_path(dir, shard);
    if (!file_exists(path)) {
      if (finished && manifest.cells > shard) {
        report.add(kRule, analysis::strformat(
                              "campaign is %s but shard %d has no checkpoint",
                              manifest.status.c_str(), shard));
      }
      continue;
    }
    const CheckpointLoad load = load_checkpoint(path);
    if (!load.ok) {
      report.add(kRule, path + ": " + load.error);
      continue;
    }
    if (load.header.shard != shard || load.header.shards != manifest.shards ||
        load.header.campaign_seed != manifest.seed ||
        load.header.cells != manifest.cells) {
      report.add(kRule,
                 path + ": checkpoint identity disagrees with the manifest");
      continue;
    }
    if (load.recovered_torn_tail) {
      analysis::Diagnostic diag;
      diag.rule = kRule;
      diag.severity = analysis::Severity::kWarning;
      diag.message = analysis::strformat(
          "%s: torn tail record (%zu bytes) — expected kill residue, "
          "recovered",
          path.c_str(), load.torn_bytes);
      report.add(diag);
    }
    std::set<std::int64_t> shard_done;
    for (std::size_t i = 0; i < load.records.size(); ++i) {
      const CheckpointRecord& record = load.records[i];
      if (record.kind == CheckpointRecordKind::kDegrade) continue;
      if (record.cell < 0 || record.cell >= manifest.cells ||
          record.cell % manifest.shards != shard) {
        report.add(kRule,
                   analysis::strformat(
                       "%s: record names cell %lld outside this shard",
                       path.c_str(),
                       static_cast<long long>(record.cell)),
                   cell_loc(record.cell));
        continue;
      }
      if (record.kind == CheckpointRecordKind::kDone) {
        if (!shard_done.insert(record.cell).second) {
          analysis::Diagnostic diag;
          diag.rule = kRule;
          diag.severity = analysis::Severity::kWarning;
          diag.message = analysis::strformat(
              "%s: duplicate done record for cell %lld", path.c_str(),
              static_cast<long long>(record.cell));
          diag.loc = cell_loc(record.cell);
          report.add(diag);
        }
        (i < load.committed_records ? done : hinted).insert(record.cell);
      } else if (record.kind == CheckpointRecordKind::kQuarantine) {
        quarantined.insert(record.cell);
      }
    }
  }

  // Cross-check result rows against the checkpoints.
  const ResultScan scan = scan_results(dir, manifest);
  for (const std::string& error : scan.errors) {
    report.add(kRule, error);
  }
  if (scan.torn_tail_lines > 0 || scan.unparsed_lines > 0) {
    analysis::Diagnostic diag;
    diag.rule = kRule;
    diag.severity = analysis::Severity::kWarning;
    diag.message = analysis::strformat(
        "result files carry %lld torn and %lld unparsable lines "
        "(recovered; rerun of those cells will re-append)",
        static_cast<long long>(scan.torn_tail_lines),
        static_cast<long long>(scan.unparsed_lines));
    report.add(diag);
  }
  std::set<std::int64_t> rows_present;
  for (const ResultRow& row : scan.rows) {
    rows_present.insert(row.cell);
    if (row.cell < 0 || row.cell >= manifest.cells) {
      report.add(kRule,
                 analysis::strformat("result row names cell %lld outside the "
                                     "campaign",
                                     static_cast<long long>(row.cell)),
                 cell_loc(row.cell));
      continue;
    }
    if (row.status == "failed" && quarantined.count(row.cell) == 0) {
      report.add(kRule,
                 analysis::strformat("cell %lld has a failed row but no "
                                     "quarantine record",
                                     static_cast<long long>(row.cell)),
                 cell_loc(row.cell));
    }
  }
  for (const std::int64_t cell : hinted) {
    if (rows_present.count(cell) != 0) {
      done.insert(cell);
    } else if (done.count(cell) == 0) {
      analysis::Diagnostic diag;
      diag.rule = kRule;
      diag.severity = analysis::Severity::kWarning;
      diag.message = analysis::strformat(
          "cell %lld: done record past the last commit has no result row "
          "(machine-crash residue; resume re-runs the cell)",
          static_cast<long long>(cell));
      diag.loc = cell_loc(cell);
      report.add(diag);
    }
  }
  for (const std::int64_t cell : done) {
    // The write ordering makes the row durable *before* the commit that
    // covers its done record; a committed done cell without a row
    // breaks that invariant.
    if (rows_present.count(cell) == 0) {
      report.add(kRule,
                 analysis::strformat(
                     "cell %lld is checkpointed done but has no result row",
                     static_cast<long long>(cell)),
                 cell_loc(cell));
    }
  }
  for (const std::int64_t cell : quarantined) {
    if (rows_present.count(cell) == 0) {
      report.add(kRule,
                 analysis::strformat(
                     "cell %lld is quarantined but has no failed row",
                     static_cast<long long>(cell)),
                 cell_loc(cell));
    }
  }

  if (finished) {
    std::int64_t unaccounted = 0;
    for (std::int64_t cell = 0; cell < manifest.cells; ++cell) {
      if (done.count(cell) == 0 && quarantined.count(cell) == 0) {
        ++unaccounted;
      }
    }
    if (unaccounted > 0) {
      report.add(kRule,
                 analysis::strformat(
                     "campaign is %s but %lld cells are unaccounted for",
                     manifest.status.c_str(),
                     static_cast<long long>(unaccounted)));
    }
  }
  return report;
}

}  // namespace coeff::campaign
