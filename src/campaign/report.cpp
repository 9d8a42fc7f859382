#include "campaign/report.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <type_traits>
#include <unordered_map>
#include <variant>

#include "analysis/diagnostic.hpp"
#include "campaign/checkpoint.hpp"
#include "units/number.hpp"

namespace coeff::campaign {

namespace {

std::string format_double(double value) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

// --- The result row's field table -------------------------------------

/// Row kinds, one bit each: the statuses "ok", "failed" and "shed".
constexpr unsigned kOk = 1U;
constexpr unsigned kFailed = 2U;
constexpr unsigned kShed = 4U;
constexpr unsigned kRan = kOk | kFailed;  ///< rows that name the scenario
constexpr unsigned kAll = kRan | kShed;

/// The kind of a row status; 0 for a status no row carries.
unsigned kind_of(std::string_view status) {
  return status == "ok"       ? kOk
         : status == "failed" ? kFailed
         : status == "shed"   ? kShed
                              : 0U;
}

/// Where a key's value lives. The report totals every CellCounters
/// member, under the member's own key.
using Member =
    std::variant<std::int64_t ResultRow::*, std::uint64_t ResultRow::*,
                 int ResultRow::*, double ResultRow::*, bool ResultRow::*,
                 std::string ResultRow::*, std::int64_t CellCounters::*,
                 double CellCounters::*>;

struct Field {
  std::string_view key;
  Member member;
  unsigned kinds;       ///< the row kinds that carry it
  bool legacy = false;  ///< rows from older schemas may omit it (reads 0)
  /// A flag's total: the count of ok rows that set it, and its key.
  std::int64_t CampaignAggregate::*count = nullptr;
  std::string_view count_key = {};
};

/// Every key of the result row, in row order.
const Field kFields[] = {
    {"cell", &ResultRow::cell, kAll},
    {"seed", &ResultRow::seed, kAll},
    {"status", &ResultRow::status, kAll},
    {"scheme", &ResultRow::scheme, kRan},
    {"fault", &ResultRow::fault, kRan},
    {"structural", &ResultRow::structural, kRan},
    {"nodes", &ResultRow::nodes, kRan},
    {"statics", &ResultRow::statics, kRan},
    {"dynamics", &ResultRow::dynamics, kRan},
    {"util", &ResultRow::util, kRan},
    {"ber", &ResultRow::ber, kRan},
    {"attempts", &ResultRow::attempts, kFailed},
    {"reason", &ResultRow::reason, kFailed},
    {"released", &CellCounters::released, kOk},
    {"delivered", &CellCounters::delivered, kOk},
    {"missed", &CellCounters::missed, kOk},
    {"source_lost", &CellCounters::source_lost, kOk},
    {"copies_sent", &CellCounters::copies_sent, kOk},
    {"cycles", &CellCounters::cycles, kOk},
    {"miss_ratio", &ResultRow::miss_ratio, kOk},
    {"degraded", &ResultRow::degraded, kOk, false,
     &CampaignAggregate::degraded_plans, "degraded_plans"},
    {"plan_swaps", &CellCounters::plan_swaps, kOk},
    {"failovers", &CellCounters::failovers, kOk},
    {"frames_lost", &ResultRow::frames_lost, kOk},
    // Later schema revisions: the static-segment counts, the DynWcrt
    // cross-check's d_* and the mode protocol's m_* and e_* (DESIGN.md
    // §16).
    {"s_released", &ResultRow::s_released, kOk, true},
    {"s_missed", &ResultRow::s_missed, kOk, true},
    {"d_released", &CellCounters::d_released, kOk, true},
    {"d_missed", &CellCounters::d_missed, kOk, true},
    {"m_changes", &CellCounters::m_changes, kOk, true},
    {"m_shed", &CellCounters::m_shed, kOk, true},
    {"m_matchup", &CellCounters::m_matchup, kOk, true},
    {"m_dwell_l1", &CellCounters::m_dwell_l1, kOk, true},
    {"m_dwell_l2", &CellCounters::m_dwell_l2, kOk, true},
    {"e_total_uj", &CellCounters::e_total_uj, kOk, true},
    {"e_sleep_uj", &CellCounters::e_sleep_uj, kOk, true},
};

/// True for the members the report totals under their own key.
template <class M>
constexpr bool kTotaled = std::is_same_v<M, std::int64_t CellCounters::*> ||
                          std::is_same_v<M, double CellCounters::*>;

/// `"key":`, after a comma unless it opens an object.
void write_key(std::string& out, std::string_view key) {
  out += out.back() == '{' ? "\"" : ",\"";
  out += key;
  out += "\":";
}

template <class T>
void write_value(std::string& out, const T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    out += '"' + analysis::json_escape(value) + '"';
  } else if constexpr (std::is_same_v<T, bool>) {
    out += value ? "true" : "false";
  } else if constexpr (std::is_floating_point_v<T>) {
    out += format_double(value);
  } else {
    out += units::to_text(value);
  }
}

/// Reads the JSON string whose opening quote is line[at] into `out`;
/// returns the index after its closing quote, or npos on a raw control
/// character or an escape json_escape never writes.
std::size_t read_string(std::string_view line, std::size_t at,
                        std::string& out) {
  if (at >= line.size() || line[at] != '"') return std::string::npos;
  std::size_t i = at + 1;
  while (i < line.size() && line[i] != '"') {
    if (static_cast<unsigned char>(line[i]) < 0x20) return std::string::npos;
    if (line[i] != '\\') {
      out += line[i++];
      continue;
    }
    // The one character whose escape this is.
    std::size_t length = 0;
    for (int c = 0; c < 0x80 && length == 0; ++c) {
      const char ch = static_cast<char>(c);
      const std::string escape = analysis::json_escape({&ch, 1});
      if (escape.size() > 1 && line.substr(i).starts_with(escape)) {
        out += ch;
        length = escape.size();
      }
    }
    if (length == 0) return std::string::npos;
    i += length;
  }
  return i < line.size() ? i + 1 : std::string::npos;
}

/// Reads one scanned value: a whole JSON string, true/false or a number.
template <class T>
bool read_value(std::string_view text, T& out) {
  if constexpr (std::is_same_v<T, std::string>) {
    out.clear();
    return read_string(text, 0, out) == text.size();
  } else if constexpr (std::is_same_v<T, bool>) {
    out = text == "true";
    return out || text == "false";
  } else if constexpr (std::is_floating_point_v<T>) {
    // Near the largest double, %.10g rounds up past it: such a value
    // could not be read back once written.
    double written = 0.0;
    return units::parse_number(text, out) &&
           units::parse_number(format_double(out), written);
  } else {
    return units::parse_number(text, out);
  }
}

/// (key, raw value) pairs of a flat JSON object without whitespace.
using Pairs = std::vector<std::pair<std::string_view, std::string_view>>;

std::optional<Pairs> scan_object(std::string_view line) {
  if (line.size() < 2 || line.front() != '{' || line.back() != '}') {
    return std::nullopt;
  }
  Pairs pairs;
  std::string unused;
  for (std::size_t i = 1; i < line.size(); ++i) {  // at a key's quote
    const std::size_t colon = read_string(line, i, unused);
    if (colon >= line.size() || line[colon] != ':') return std::nullopt;
    const std::size_t at = colon + 1;
    const std::size_t end = line[at] == '"' ? read_string(line, at, unused)
                                            : line.find_first_of(",}", at);
    if (end >= line.size()) return std::nullopt;
    pairs.emplace_back(line.substr(i + 1, colon - i - 2),
                       line.substr(at, end - at));
    if (end + 1 == line.size()) return pairs;  // the closing brace
    if (line[end] != ',') return std::nullopt;
    i = end;
  }
  return std::nullopt;
}

void fold_group(std::map<std::string, GroupStat>& groups,
                const std::string& key, const ResultRow& row) {
  GroupStat& stat = groups[key];
  ++stat.cells;
  stat.released += row.released;
  stat.missed += row.missed;
  stat.miss_ratio_sum += row.miss_ratio;
}

double mean_miss(const GroupStat& stat) {
  return stat.cells > 0
             ? stat.miss_ratio_sum / static_cast<double>(stat.cells)
             : 0.0;
}

void render_groups(std::string& out, const char* title,
                   const std::map<std::string, GroupStat>& groups) {
  if (groups.empty()) return;
  out += title;
  out += ":\n";
  for (const auto& [key, stat] : groups) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "  %-24s cells=%-6" PRId64 " released=%-9" PRId64
                  " missed=%-7" PRId64 " mean_miss=%s\n",
                  key.c_str(), stat.cells, stat.released, stat.missed,
                  format_double(mean_miss(stat)).c_str());
    out += buf;
  }
}

void render_groups_json(std::string& out, std::string_view key,
                        const std::map<std::string, GroupStat>& groups) {
  write_key(out, key);
  out += '{';
  for (const auto& [name, stat] : groups) {
    write_key(out, analysis::json_escape(name));
    out += "{\"cells\":" + std::to_string(stat.cells);
    out += ",\"released\":" + std::to_string(stat.released);
    out += ",\"missed\":" + std::to_string(stat.missed);
    out += ",\"mean_miss\":" + format_double(mean_miss(stat)) + "}";
  }
  out += '}';
}

/// A row of `status` that names `spec`'s cell and scenario.
ResultRow identity_row(const ScenarioSpec& spec, std::string status) {
  ResultRow row;
  row.cell = spec.cell;
  row.seed = spec.seed;
  row.status = std::move(status);
  row.scheme = scheme_tag(spec.scheme);
  row.fault = fault::to_string(spec.fault_model.kind);
  row.structural = to_string(spec.structural);
  row.nodes = spec.nodes;
  row.statics = spec.num_statics;
  row.dynamics = spec.num_dynamics;
  row.util = spec.utilization;
  row.ber = spec.fault_model.ber;
  return row;
}

}  // namespace

ResultRow make_row(const ScenarioSpec& spec,
                   const core::ExperimentResult& result) {
  ResultRow row = identity_row(spec, "ok");
  const core::RunStats& run = result.run;
  row.released = run.statics.released + run.dynamics.released;
  row.delivered = run.statics.delivered + run.dynamics.delivered;
  row.missed = run.statics.missed + run.dynamics.missed;
  row.source_lost = run.statics.source_lost + run.dynamics.source_lost;
  row.copies_sent = run.statics.copies_sent + run.dynamics.copies_sent;
  row.cycles = result.cycles_run;
  row.miss_ratio = run.overall_miss_ratio();
  row.degraded = run.plan_degraded;
  row.plan_swaps = run.plan_swaps;
  row.failovers = run.failovers;
  row.frames_lost = run.frames_lost;
  row.s_released = run.statics.released;
  row.s_missed = run.statics.missed;
  row.d_released = run.dynamics.released;
  row.d_missed = run.dynamics.missed;
  row.m_changes = run.mode_changes;
  row.m_shed = run.mode_sheds;
  row.m_matchup = run.matchups;
  row.m_dwell_l1 = run.mode_cycles_l1;
  row.m_dwell_l2 = run.mode_cycles_l2;
  row.e_total_uj = run.energy_total_uj;
  row.e_sleep_uj = run.energy_sleep_saved_uj;
  return row;
}

ResultRow make_failed_row(const ScenarioSpec& spec, int attempts,
                          const std::string& reason) {
  ResultRow row = identity_row(spec, "failed");
  row.attempts = attempts;
  row.reason = reason;
  return row;
}

ResultRow make_shed_row(const ScenarioSpec& spec) {
  // Degraded-path minimal row: its kind carries identity only, so it
  // never lies about detail.
  return identity_row(spec, "shed");
}

std::string render_row(const ResultRow& row) {
  const unsigned status = kind_of(row.status);
  const unsigned kind = status != 0 ? status : kOk;
  std::string out = "{";
  for (const Field& field : kFields) {
    if ((field.kinds & kind) == 0) continue;
    write_key(out, field.key);
    std::visit([&](const auto& m) { write_value(out, row.*m); },
               field.member);
  }
  out += '}';
  return out;
}

std::optional<ResultRow> parse_row(std::string_view line) {
  const auto pairs = scan_object(line);
  if (!pairs.has_value()) return std::nullopt;
  ResultRow row;
  for (const Field& field : kFields) {
    // `status` precedes every key that only some row kinds carry.
    const unsigned kind = kind_of(row.status);
    if (kind == 0) return std::nullopt;
    if ((field.kinds & kind) == 0) continue;
    const auto pair = std::find_if(
        pairs->begin(), pairs->end(),
        [&field](const auto& p) { return p.first == field.key; });
    const bool ok =
        pair == pairs->end()
            ? field.legacy
            : std::visit(
                  [&](const auto& m) {
                    return read_value(pair->second, row.*m);
                  },
                  field.member);
    if (!ok) return std::nullopt;
  }
  if (row.cell < 0) return std::nullopt;
  return row;
}

ResultScan scan_results(const std::string& dir,
                        const CampaignManifest& manifest) {
  ResultScan scan;
  std::unordered_map<std::int64_t, std::size_t> by_cell;
  for (int shard = 0; shard < manifest.shards; ++shard) {
    const std::string path = shard_results_path(dir, shard);
    const auto bytes = read_file(path);
    if (!bytes.has_value()) continue;  // shard not started yet
    std::size_t start = 0;
    while (start < bytes->size()) {
      const auto newline = bytes->find('\n', start);
      if (newline == std::string::npos) {
        ++scan.torn_tail_lines;
        break;
      }
      const std::string_view line =
          std::string_view(*bytes).substr(start, newline - start);
      start = newline + 1;
      if (line.empty()) continue;
      auto row = parse_row(line);
      if (!row.has_value()) {
        // A complete-but-unparseable line mid-file is garbage worth
        // counting; the lint rule turns it into a diagnostic.
        ++scan.unparsed_lines;
        continue;
      }
      const auto it = by_cell.find(row->cell);
      if (it != by_cell.end()) {
        ++scan.duplicate_rows;
        scan.rows[it->second] = std::move(*row);  // keep-last
      } else {
        by_cell.emplace(row->cell, scan.rows.size());
        scan.rows.push_back(std::move(*row));
      }
    }
  }
  std::sort(scan.rows.begin(), scan.rows.end(),
            [](const ResultRow& a, const ResultRow& b) {
              return a.cell < b.cell;
            });
  return scan;
}

std::size_t recovered_results_length(std::string_view bytes,
                                     std::size_t committed,
                                     std::set<std::int64_t>* tail_cells) {
  std::size_t start = committed;
  while (start < bytes.size()) {
    const auto newline = bytes.find('\n', start);
    if (newline == std::string_view::npos) break;
    const auto row = parse_row(bytes.substr(start, newline - start));
    if (!row.has_value()) break;
    if (tail_cells != nullptr) tail_cells->insert(row->cell);
    start = newline + 1;
  }
  return std::min(start, bytes.size());
}

CampaignAggregate aggregate_rows(const std::vector<ResultRow>& rows,
                                 std::int64_t expected_cells) {
  CampaignAggregate agg;
  agg.expected = expected_cells;
  std::vector<bool> seen(
      expected_cells > 0 ? static_cast<std::size_t>(expected_cells) : 0,
      false);
  for (const ResultRow& row : rows) {
    if (row.cell >= 0 && row.cell < expected_cells) {
      seen[static_cast<std::size_t>(row.cell)] = true;
    }
    if (row.status == "failed") {
      ++agg.failed;
      agg.quarantined.push_back(row);
      continue;
    }
    if (row.status == "shed") {
      ++agg.shed;
      continue;
    }
    ++agg.ok;
    for (const Field& field : kFields) {
      std::visit(
          [&](const auto& m) {
            using M = std::decay_t<decltype(m)>;
            if constexpr (kTotaled<M>) agg.*m += row.*m;
            if constexpr (std::is_same_v<M, bool ResultRow::*>) {
              agg.*field.count += row.*m ? 1 : 0;
            }
          },
          field.member);
    }
    agg.miss_ratio_mean += row.miss_ratio;
    agg.miss_ratio_max = std::max(agg.miss_ratio_max, row.miss_ratio);
    fold_group(agg.by_scheme, row.scheme, row);
    fold_group(agg.by_fault, row.fault, row);
    fold_group(agg.by_structural, row.structural, row);
  }
  if (agg.ok > 0) agg.miss_ratio_mean /= static_cast<double>(agg.ok);
  for (std::int64_t cell = 0; cell < expected_cells; ++cell) {
    if (!seen[static_cast<std::size_t>(cell)]) {
      ++agg.missing;
      if (agg.missing_cells.size() < 16) agg.missing_cells.push_back(cell);
    }
  }
  return agg;
}

std::string render_report_text(const CampaignAggregate& agg,
                               const CampaignManifest& manifest) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "campaign  : %s seed=%" PRIu64 " cells=%" PRId64
                " shards=%d isolation=%s\n",
                manifest.name.c_str(), manifest.seed, manifest.cells,
                manifest.shards, to_string(manifest.isolation));
  out += buf;
  std::snprintf(buf, sizeof buf,
                "cells     : ok=%" PRId64 " failed=%" PRId64 " shed=%" PRId64
                " missing=%" PRId64 " / %" PRId64 "\n",
                agg.ok, agg.failed, agg.shed, agg.missing, agg.expected);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "instances : released=%" PRId64 " delivered=%" PRId64
                " missed=%" PRId64 " source_lost=%" PRId64 "\n",
                agg.released, agg.delivered, agg.missed, agg.source_lost);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "dynamic   : released=%" PRId64 " missed=%" PRId64 "\n",
                agg.d_released, agg.d_missed);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "miss      : mean=%s max=%s | degraded_plans=%" PRId64
                " plan_swaps=%" PRId64 " failovers=%" PRId64 "\n",
                format_double(agg.miss_ratio_mean).c_str(),
                format_double(agg.miss_ratio_max).c_str(), agg.degraded_plans,
                agg.plan_swaps, agg.failovers);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "wire      : copies_sent=%" PRId64 " cycles=%" PRId64 "\n",
                agg.copies_sent, agg.cycles);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "mode      : changes=%" PRId64 " shed=%" PRId64
                " matchup=%" PRId64 " dwell_l1=%" PRId64 " dwell_l2=%" PRId64
                "\n",
                agg.m_changes, agg.m_shed, agg.m_matchup, agg.m_dwell_l1,
                agg.m_dwell_l2);
  out += buf;
  std::snprintf(buf, sizeof buf, "energy    : total_uj=%s sleep_saved_uj=%s\n",
                format_double(agg.e_total_uj).c_str(),
                format_double(agg.e_sleep_uj).c_str());
  out += buf;
  render_groups(out, "by scheme", agg.by_scheme);
  render_groups(out, "by fault model", agg.by_fault);
  render_groups(out, "by structural fault", agg.by_structural);
  if (!agg.quarantined.empty()) {
    out += "quarantined cells (rerun with the repro seed):\n";
    for (const ResultRow& row : agg.quarantined) {
      std::snprintf(buf, sizeof buf,
                    "  cell=%" PRId64 " seed=%" PRIu64
                    " attempts=%d reason=%s scheme=%s fault=%s+%s\n",
                    row.cell, row.seed, row.attempts, row.reason.c_str(),
                    row.scheme.c_str(), row.fault.c_str(),
                    row.structural.c_str());
      out += buf;
    }
  }
  if (!agg.missing_cells.empty()) {
    out += "missing cells:";
    for (const std::int64_t cell : agg.missing_cells) {
      out += ' ';
      out += std::to_string(cell);
    }
    if (agg.missing > static_cast<std::int64_t>(agg.missing_cells.size())) {
      out += " ...";
    }
    out += '\n';
  }
  return out;
}

std::string render_report_json(const CampaignAggregate& agg,
                               const CampaignManifest& manifest) {
  std::string out =
      "{\"campaign\":\"" + analysis::json_escape(manifest.name) + "\"";
  out += ",\"seed\":" + std::to_string(manifest.seed);
  out += ",\"cells\":" + std::to_string(manifest.cells);
  out += ",\"ok\":" + std::to_string(agg.ok);
  out += ",\"failed\":" + std::to_string(agg.failed);
  out += ",\"shed\":" + std::to_string(agg.shed);
  out += ",\"missing\":" + std::to_string(agg.missing);
  // The ok rows' totals, in row order.
  for (const Field& field : kFields) {
    std::visit(
        [&](const auto& m) {
          using M = std::decay_t<decltype(m)>;
          if constexpr (kTotaled<M>) {
            write_key(out, field.key);
            write_value(out, agg.*m);
          }
          if constexpr (std::is_same_v<M, bool ResultRow::*>) {
            write_key(out, field.count_key);
            write_value(out, agg.*field.count);
          }
        },
        field.member);
  }
  out += ",\"miss_ratio_mean\":" + format_double(agg.miss_ratio_mean);
  out += ",\"miss_ratio_max\":" + format_double(agg.miss_ratio_max);
  render_groups_json(out, "by_scheme", agg.by_scheme);
  render_groups_json(out, "by_fault", agg.by_fault);
  render_groups_json(out, "by_structural", agg.by_structural);
  out += ",\"quarantined\":[";
  for (const ResultRow& row : agg.quarantined) {
    if (out.back() != '[') out += ',';
    out += render_row(row);
  }
  out += "]}";
  return out;
}

}  // namespace coeff::campaign
