// Crash-safe sharded campaign runner (DESIGN.md §13).
//
// Cells are assigned to shards by `cell % shards`. Each shard is a
// forked worker that replays its checkpoint, skips finished/quarantined
// cells, and brackets every cell with intent/done records. A cell costs
// two fsyncs: its intent, written together with the previous cell's
// done record, and its result row; the shard's last done record is
// fsync'd alone. The parent is a single-threaded supervisor that
// watches checkpoint progress, kills a shard whose in-flight cell
// exceeds the watchdog budget, retries with exponential backoff, and
// quarantines a cell that exhausts its attempt budget (the failed row
// records the repro seed). Workers die with the supervisor
// (PR_SET_PDEATHSIG), so a `kill -9` of the whole campaign leaves only
// fsync'd state behind — `resume` picks up from the manifest +
// checkpoints alone and the final aggregate is byte-identical to an
// uninterrupted run.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "campaign/manifest.hpp"

namespace coeff::campaign {

struct CampaignOptions {
  std::string dir;
  CampaignManifest manifest;
  /// fsync every record/row append (disable only in tests that don't
  /// care about durability).
  bool durable = true;
  /// Supervisor poll interval.
  std::int64_t poll_ms = 20;
  /// Progress sink (nullptr = silent). Called from the supervisor.
  std::function<void(const std::string&)> log;

  // --- Deterministic failure injection (tests + CI smoke only) ---------
  /// Cells whose worker blocks forever after writing the intent record
  /// (exercises the watchdog). Also read from COEFF_CAMPAIGN_HANG_CELLS
  /// ("3,17") by coeffctl, which exits 2 on a malformed list.
  std::vector<std::int64_t> hang_cells;
  /// Cells whose worker _exit(42)s after writing the intent record
  /// (exercises crash retry + poison quarantine). Env:
  /// COEFF_CAMPAIGN_CRASH_CELLS.
  std::vector<std::int64_t> crash_cells;
};

struct CampaignOutcome {
  bool ok = false;
  std::string error;
  std::int64_t total_cells = 0;
  std::int64_t completed = 0;    ///< cells with a done record
  std::int64_t quarantined = 0;  ///< poison cells recorded as failed
  std::int64_t respawns = 0;     ///< worker restarts (watchdog + crash)
  bool degraded = false;         ///< some result detail was shed
};

class CampaignRunner {
 public:
  /// Start a fresh campaign: create `dir` if needed (refusing a dir
  /// that already holds a manifest), write the write-ahead manifest,
  /// run every shard to completion.
  [[nodiscard]] static CampaignOutcome run(const CampaignOptions& options);

  /// Resume a campaign from its directory. Finished cells are skipped
  /// via the checkpoints; a campaign already marked complete returns
  /// immediately. `overrides.manifest` is ignored — identity comes
  /// from disk.
  [[nodiscard]] static CampaignOutcome resume(const std::string& dir,
                                              CampaignOptions overrides = {});

  /// Parse "3,17,99" (the env-hook format): comma-separated cell
  /// indices; unset or empty is no cell, anything else nullopt.
  [[nodiscard]] static std::optional<std::vector<std::int64_t>>
  parse_cell_list(const char* text);
};

}  // namespace coeff::campaign
