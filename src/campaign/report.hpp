// Streaming columnar campaign output + deterministic aggregation.
//
// Each completed cell appends exactly one JSON line to its shard's
// `shard-NNNN.jsonl` (append-only, written before the checkpoint's done
// record and fsync'd before the commit that covers it, so a row on disk
// is the *precondition* of a cell counting as done). The aggregator reads every shard file, tolerates the torn
// tail a kill can leave, dedups by cell (re-run cells after a resume
// produce byte-identical rows), and folds rows in cell order — so the
// final report of a killed-and-resumed campaign is byte-identical to
// an uninterrupted one.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/scenario.hpp"

namespace coeff::campaign {

/// The per-cell counters a report totals over the ok rows: a row holds
/// one cell's, the aggregate their sums. The d_*, m_* and e_* counters
/// are 0 on rows from older campaigns (and m_*/e_* on cells with the
/// mode protocol or power model off).
struct CellCounters {
  std::int64_t released = 0;
  std::int64_t delivered = 0;
  std::int64_t missed = 0;
  std::int64_t source_lost = 0;
  std::int64_t copies_sent = 0;
  std::int64_t cycles = 0;
  std::int64_t plan_swaps = 0;
  std::int64_t failovers = 0;
  /// Dynamic-segment instance counts (the population the analytic
  /// DynWcrt envelope speaks about); the dynamic cross-check skips rows
  /// without them.
  std::int64_t d_released = 0;
  std::int64_t d_missed = 0;
  /// Mixed-criticality mode protocol counters (DESIGN.md §16).
  std::int64_t m_changes = 0;
  std::int64_t m_shed = 0;
  std::int64_t m_matchup = 0;
  std::int64_t m_dwell_l1 = 0;  ///< cycles dwelt in DEGRADED-L1
  std::int64_t m_dwell_l2 = 0;  ///< cycles dwelt in DEGRADED-L2
  /// Energy axis (flexray::EnergyMeter totals, microjoules).
  double e_total_uj = 0.0;
  double e_sleep_uj = 0.0;  ///< energy saved by transceiver sleep
};

/// One result line. `status` is "ok" (full detail), "failed"
/// (quarantined poison cell: repro seed + reason, no metrics) or
/// "shed" (cell ran but result detail was dropped on write failure).
/// Its keys, their order and which rows carry them are one table in
/// report.cpp.
struct ResultRow : CellCounters {
  std::int64_t cell = -1;
  std::uint64_t seed = 0;
  std::string status = "ok";
  std::string scheme;
  std::string fault;       ///< channel fault model tag
  std::string structural;  ///< structural fault tag
  int nodes = 0;
  int statics = 0;
  int dynamics = 0;
  double util = 0.0;
  double ber = 0.0;
  int attempts = 1;
  std::string reason;  ///< failed rows: watchdog-timeout | crash | ...
  double miss_ratio = 0.0;
  bool degraded = false;
  std::int64_t frames_lost = 0;
  /// Static-segment-only instance counts (the population the analytic
  /// ProbWcrt envelope speaks about). 0 on rows from older campaigns.
  std::int64_t s_released = 0;
  std::int64_t s_missed = 0;
};

[[nodiscard]] ResultRow make_row(const ScenarioSpec& spec,
                                 const core::ExperimentResult& result);
[[nodiscard]] ResultRow make_failed_row(const ScenarioSpec& spec,
                                        int attempts,
                                        const std::string& reason);
[[nodiscard]] ResultRow make_shed_row(const ScenarioSpec& spec);

/// One JSON object, fixed key order, no trailing newline.
[[nodiscard]] std::string render_row(const ResultRow& row);
/// Reads a rendered row; keys may come in any order, unknown keys are
/// ignored and a key that older schemas lack may be absent. nullopt on
/// anything else, including whitespace, a raw control character or an
/// escape render_row never writes, so render(parse(render(x))) is
/// byte-stable. Never throws (fuzzed).
[[nodiscard]] std::optional<ResultRow> parse_row(std::string_view line);

/// Everything read back from the shard result files.
struct ResultScan {
  std::vector<ResultRow> rows;        ///< deduped by cell, cell-sorted
  std::int64_t duplicate_rows = 0;    ///< same-cell re-records (resume)
  std::int64_t torn_tail_lines = 0;   ///< unterminated final lines
  std::int64_t unparsed_lines = 0;    ///< mid-file garbage
  std::vector<std::string> errors;    ///< unreadable shard files
};

[[nodiscard]] ResultScan scan_results(const std::string& dir,
                                      const CampaignManifest& manifest);

/// Crash recovery of one shard's result file (DESIGN.md §13): how many
/// of `bytes` to keep. The first `committed` bytes are durable and kept
/// as they are; past them the file is cut at the first line that lacks
/// its newline or does not parse. The cells of the rows kept past
/// `committed` go to `tail_cells` when it is non-null.
[[nodiscard]] std::size_t recovered_results_length(
    std::string_view bytes, std::size_t committed,
    std::set<std::int64_t>* tail_cells = nullptr);

struct GroupStat {
  std::int64_t cells = 0;
  std::int64_t released = 0;
  std::int64_t missed = 0;
  double miss_ratio_sum = 0.0;
};

/// The ok rows' counters summed, plus the row census and groupings.
struct CampaignAggregate : CellCounters {
  std::int64_t expected = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  std::int64_t shed = 0;
  std::int64_t missing = 0;
  std::int64_t degraded_plans = 0;  ///< ok rows with `degraded` set
  double miss_ratio_mean = 0.0;     ///< mean of per-cell ratios (ok cells)
  double miss_ratio_max = 0.0;
  std::map<std::string, GroupStat> by_scheme;
  std::map<std::string, GroupStat> by_fault;
  std::map<std::string, GroupStat> by_structural;
  std::vector<ResultRow> quarantined;       ///< failed rows, cell order
  std::vector<std::int64_t> missing_cells;  ///< capped sample
};

[[nodiscard]] CampaignAggregate aggregate_rows(
    const std::vector<ResultRow>& rows, std::int64_t expected_cells);

/// Deterministic renderings: depend only on the deduped row set.
[[nodiscard]] std::string render_report_text(
    const CampaignAggregate& aggregate, const CampaignManifest& manifest);
[[nodiscard]] std::string render_report_json(
    const CampaignAggregate& aggregate, const CampaignManifest& manifest);

}  // namespace coeff::campaign
