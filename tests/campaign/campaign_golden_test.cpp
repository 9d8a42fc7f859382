// Golden digests of everything a campaign writes and prints (DESIGN.md
// §13). Three seeded 48-cell campaigns on 3 shards: all three schemes;
// the same with the mixed-criticality axis and longer windows, so the
// mode and energy counters are non-zero; and one with a
// crash-quarantined cell and a shed row. Each test compares the FNV-1a of
// the manifest, of every shard's rows and checkpoint, of both report
// renders, of the consistency lint's text and of the analytic
// cross-check summary against values recorded from a known-good build.
// DurableRunWritesTheSameBytes runs the first campaign again with fsync
// on and must reproduce its digests.
// A digest that moves means campaign bytes moved; resume and the report
// rely on them staying put, so re-record only with a line-by-line
// argument for why. Each checkpoint ends with a commit record naming
// its shard's row length, so the criticality campaign's checkpoints
// differ from the first campaign's although their other records match.
//
// NumberVerdicts pins which spellings of a number each campaign reader
// accepts. A change may flip an entry from accepted to rejected (and say
// so), never the other way.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/cross_check.hpp"
#include "campaign/lint.hpp"
#include "campaign/manifest.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"

namespace coeff::campaign {
namespace {

/// 64-bit FNV-1a of `text`, as 16 hex digits.
std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

using Digests = std::vector<std::pair<std::string, std::string>>;

CampaignManifest golden_manifest(const char* name) {
  CampaignManifest manifest;
  manifest.name = name;
  manifest.seed = 2026;
  manifest.cells = 48;
  manifest.shards = 3;
  manifest.backoff_base_ms = 20;
  manifest.distribution.window_ms = 50;
  manifest.distribution.schemes = {core::SchemeKind::kCoEfficient,
                                   core::SchemeKind::kFspec,
                                   core::SchemeKind::kHosa};
  return manifest;
}

/// Runs `manifest` in a fresh directory named after it (and after
/// `durable`, so the fsync'd run never shares one); returns the dir.
std::string run_campaign(const CampaignManifest& manifest,
                         std::vector<std::int64_t> crash_cells = {},
                         bool durable = false) {
  const std::string dir =
      "campaign_golden_" + manifest.name + (durable ? "_durable" : "");
  (void)std::system(("rm -rf " + dir).c_str());
  CampaignOptions options;
  options.dir = dir;
  options.manifest = manifest;
  options.durable = durable;
  options.poll_ms = 5;
  options.crash_cells = std::move(crash_cells);
  const CampaignOutcome outcome = CampaignRunner::run(options);
  EXPECT_TRUE(outcome.ok) << outcome.error;
  return dir;
}

Digests digest_campaign(const std::string& dir) {
  Digests out;
  const auto file = [&out](const std::string& label, const std::string& path) {
    out.emplace_back(label, digest(read_file(path).value_or("(missing)")));
  };
  file("manifest", manifest_path(dir));
  const ManifestLoad load = load_manifest(manifest_path(dir));
  EXPECT_TRUE(load.ok) << load.error;
  for (int shard = 0; shard < load.manifest.shards; ++shard) {
    const std::string n = std::to_string(shard);
    file("rows " + n, shard_results_path(dir, shard));
    file("ckpt " + n, shard_checkpoint_path(dir, shard));
  }
  const ResultScan scan = scan_results(dir, load.manifest);
  const CampaignAggregate aggregate =
      aggregate_rows(scan.rows, load.manifest.cells);
  out.emplace_back("report text",
                   digest(render_report_text(aggregate, load.manifest)));
  out.emplace_back("report json",
                   digest(render_report_json(aggregate, load.manifest)));
  out.emplace_back("lint", digest(lint_campaign(dir).render_text()));
  analysis::Report findings;
  const CrossCheckSummary s = cross_check_prob(
      load.manifest, scan.rows, CrossCheckOptions{}, findings);
  char line[128];
  std::snprintf(line, sizeof line, "%zu/%zu %zu | %zu/%zu %zu\n", s.checked,
                s.eligible, s.diverged, s.dyn_checked, s.dyn_eligible,
                s.dyn_diverged);
  out.emplace_back("cross-check", digest(line + findings.render_text()));
  return out;
}

/// One "label digest" line per entry, so a mismatch prints as a diff.
std::string listing(const Digests& digests) {
  std::string out;
  for (const auto& [label, value] : digests) out += label + " " + value + "\n";
  return out;
}

void expect_golden(const Digests& got, const Digests& want) {
  EXPECT_EQ(listing(got), listing(want));
}

const Digests kAllSchemes = {{"manifest", "858bb8d81d57af39"},
                              {"rows 0", "76c6657ddfa320f9"},
                              {"ckpt 0", "d05865a493b30d71"},
                              {"rows 1", "bda22fa0c777b2a8"},
                              {"ckpt 1", "4618a4ff7f99bc02"},
                              {"rows 2", "5678e753b57cc4ec"},
                              {"ckpt 2", "8e3ecfe90b6a3f39"},
                              {"report text", "344125563baf8a3c"},
                              {"report json", "c4e5466f713538e0"},
                              {"lint", "cbf29ce484222325"},
                              {"cross-check", "f7f26ba9ea42a153"}};

TEST(CampaignGoldenTest, AllSchemes) {
  const std::string dir = run_campaign(golden_manifest("schemes"));
  expect_golden(digest_campaign(dir), kAllSchemes);
}

// Every other campaign test skips fsync; this one runs the fsync'd
// worker path, whose group commit fsyncs the rows and the checkpoint
// before its commit record, and it must leave the same bytes as the
// unsynced run.
TEST(CampaignGoldenTest, DurableRunWritesTheSameBytes) {
  const std::string dir =
      run_campaign(golden_manifest("schemes"), {}, /*durable=*/true);
  expect_golden(digest_campaign(dir), kAllSchemes);
}

TEST(CampaignGoldenTest, Criticality) {
  CampaignManifest manifest = golden_manifest("criticality");
  manifest.distribution.criticality = true;
  // Long enough that every m_* and e_* total is non-zero.
  manifest.distribution.window_ms = 400;
  const std::string dir = run_campaign(manifest);
  expect_golden(digest_campaign(dir), {{"manifest", "80652e657427a6b7"},
                                       {"rows 0", "d108510854dcade7"},
                                       {"ckpt 0", "fe5a07c2d36c82db"},
                                       {"rows 1", "4a66571b60e20af4"},
                                       {"ckpt 1", "03e33f013cc8379d"},
                                       {"rows 2", "23704f531933d281"},
                                       {"ckpt 2", "0f112be6e27c926f"},
                                       {"report text", "aa6c9f9a54a70184"},
                                       {"report json", "74d2892234e9ff78"},
                                       {"lint", "cbf29ce484222325"},
                                       {"cross-check", "1868e735a74647f4"}});
}

TEST(CampaignGoldenTest, QuarantineAndShed) {
  const CampaignManifest manifest = golden_manifest("poison");
  const std::string dir = run_campaign(manifest, {7});
  // The row a resumed re-run of cell 10 writes when its detail write
  // fails: it supersedes the cell's ok row (keep-last).
  const ScenarioGenerator generator(manifest.seed, manifest.distribution);
  std::ofstream(shard_results_path(dir, 10 % manifest.shards),
                std::ios::app | std::ios::binary)
      << render_row(make_shed_row(generator.spec(10))) << '\n';
  expect_golden(digest_campaign(dir), {{"manifest", "b3c3e33f458050eb"},
                                       {"rows 0", "76c6657ddfa320f9"},
                                       {"ckpt 0", "d05865a493b30d71"},
                                       {"rows 1", "bf56a378d27ba501"},
                                       {"ckpt 1", "cf687bd2554533b5"},
                                       {"rows 2", "5678e753b57cc4ec"},
                                       {"ckpt 2", "8e3ecfe90b6a3f39"},
                                       {"report text", "498544ead6107df6"},
                                       {"report json", "0b8c852b775895d3"},
                                       {"lint", "cbf29ce484222325"},
                                       {"cross-check", "4bc6634acc24b713"}});
}

// --- Which spellings of a number each reader accepts ------------------

const char* const kSpellings[] = {
    "-1", "-0", "+1", " 1", "1e3", "0x10", "", "18446744073709551616"};

/// A checkpoint whose middle record is "D <text>": ok only if read.
bool checkpoint_accepts(const std::string& text) {
  CheckpointHeader header;
  header.cells = 10;
  CheckpointRecord done;
  done.kind = CheckpointRecordKind::kDone;
  done.cell = 1;
  const std::string bytes = render_header(header) + "\n" +
                            seal_record("D " + text) + "\n" +
                            render_record(done) + "\n";
  return parse_checkpoint(bytes).ok;
}

/// A valid manifest with the value of `key` replaced by `text`, resealed.
bool manifest_accepts(const std::string& key, const std::string& text) {
  CampaignManifest manifest = golden_manifest("verdicts");
  manifest.distribution.max_util = 1.0;
  const std::string bytes = render_manifest(manifest);
  std::string body = bytes.substr(0, bytes.rfind("#crc32="));
  const std::size_t at = body.find("\n" + key + "=") + key.size() + 2;
  body.replace(at, body.find('\n', at) - at, text);
  char trailer[24];
  std::snprintf(trailer, sizeof trailer, "#crc32=%08X\n", crc32(body));
  return parse_manifest(body + trailer).ok;
}

/// A valid ok row with the value of `key` replaced by `text`.
bool row_accepts(const std::string& key, const std::string& text) {
  ResultRow row;
  row.cell = 3;
  row.scheme = "hosa";
  row.fault = "iid";
  row.structural = "none";
  row.util = 0.5;
  row.released = 10;
  std::string line = render_row(row);
  const std::size_t at = line.find("\"" + key + "\":") + key.size() + 3;
  line.replace(at, line.find_first_of(",}", at) - at, text);
  return parse_row(line).has_value();
}

TEST(CampaignGoldenTest, NumberVerdicts) {
  // One column per reader, one character per spelling of kSpellings:
  // 'a' accepted, 'r' rejected.
  const std::pair<const char*, const char*> want[] = {
      {"ckpt D <cell>", "rrrrrrrr"},
      {"manifest seed=", "rrrrrrrr"},
      {"manifest backoff_base_ms=", "rrrrrrrr"},
      {"manifest min_util=", "rrrrrrrr"},
      {"row \"cell\":", "rarrrrrr"},
      {"row \"released\":", "aarrrrrr"},
      {"row \"util\":", "aarrarra"},
  };
  std::string got[7];
  for (const char* spelling : kSpellings) {
    const std::string s = spelling;
    const bool verdicts[] = {
        checkpoint_accepts(s),         manifest_accepts("seed", s),
        manifest_accepts("backoff_base_ms", s),
        manifest_accepts("min_util", s), row_accepts("cell", s),
        row_accepts("released", s),    row_accepts("util", s)};
    for (int i = 0; i < 7; ++i) got[i] += verdicts[i] ? 'a' : 'r';
  }
  for (int i = 0; i < 7; ++i) {
    EXPECT_EQ(got[i], want[i].second) << want[i].first;
  }
}

}  // namespace
}  // namespace coeff::campaign
