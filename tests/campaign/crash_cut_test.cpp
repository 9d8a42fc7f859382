// Crash-cut enumeration of a shard worker's group commits (DESIGN.md
// §13, after Pillai et al., "All File Systems Are Not Created Equal",
// OSDI 2014). One fsync'd worker run is recorded: every write and fsync
// it makes on its checkpoint and its result rows, with the file's size
// after each. At every point between two of those calls, a machine
// crash keeps the fsync'd prefix of each file plus any subset of its
// unsynced pages, a lost page reading as zeros and the file ending
// either at its written size or after its last kept page, with no order
// across the two files. Each such state is written out, resumed, and
// must give the uninterrupted campaign's report, text and JSON, byte
// for byte.
//
// States that recover to the same bytes (by parse_checkpoint and
// recovered_results_length, the functions resume itself runs) are
// resumed once, from the first raw state that produced them. The
// worker's calls are seen by defining write() and fsync() here: the
// campaign library is linked statically into this binary, so its calls
// bind to these definitions, which forward to the system calls.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/lint.hpp"
#include "campaign/manifest.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"

namespace coeff::campaign {
namespace {

/// One write or fsync of the worker on a shard file.
struct IoEvent {
  int file = 0;  ///< 0 the checkpoint, 1 the result rows
  bool sync = false;
  std::size_t size = 0;  ///< the file's size after the call
};

std::vector<IoEvent>* g_events = nullptr;  ///< recording while non-null
std::array<std::string, 2> g_paths;

void record(int fd, bool sync) {
  if (g_events == nullptr) return;
  struct stat got{};
  if (::fstat(fd, &got) != 0) return;
  for (int file = 0; file < 2; ++file) {
    struct stat want{};
    if (::stat(g_paths[static_cast<std::size_t>(file)].c_str(), &want) == 0 &&
        want.st_dev == got.st_dev && want.st_ino == got.st_ino) {
      g_events->push_back({file, sync, static_cast<std::size_t>(got.st_size)});
      return;
    }
  }
}

}  // namespace
}  // namespace coeff::campaign

extern "C" ssize_t write(int fd, const void* buf, size_t count) {
  const auto written =
      static_cast<ssize_t>(::syscall(SYS_write, fd, buf, count));
  coeff::campaign::record(fd, false);
  return written;
}

extern "C" int fsync(int fd) {
  // A recorded run models durability itself; it needs no real sync.
  const int result = coeff::campaign::g_events != nullptr
                         ? 0
                         : static_cast<int>(::syscall(SYS_fsync, fd));
  coeff::campaign::record(fd, true);
  return result;
}

namespace coeff::campaign {
namespace {

constexpr std::int64_t kCells = 7;
constexpr std::int64_t kGroup = 3;  ///< groups of 3, 3 and 1 cells
/// Modeled page sizes: a checkpoint record is about 15 bytes and a row
/// about 520, so a page holds one record or half a row. Every subset of
/// real 4 KiB pages is among the subsets of these.
constexpr std::size_t kCheckpointPage = 16;
constexpr std::size_t kRowPage = 256;

CampaignManifest cut_manifest() {
  CampaignManifest manifest;
  manifest.name = "crashcut";
  manifest.seed = 33;
  manifest.cells = kCells;
  manifest.shards = 1;
  manifest.backoff_base_ms = 20;
  manifest.distribution.max_nodes = 12;
  manifest.distribution.window_ms = 25;
  manifest.distribution.schemes = {core::SchemeKind::kCoEfficient,
                                   core::SchemeKind::kFspec,
                                   core::SchemeKind::kHosa};
  return manifest;
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir = "campaign_crash_cut_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

std::pair<std::string, std::string> reports(const std::string& dir) {
  const ManifestLoad load = load_manifest(manifest_path(dir));
  if (!load.ok) return {"unloadable: " + load.error, ""};
  const CampaignAggregate aggregate = aggregate_rows(
      scan_results(dir, load.manifest).rows, load.manifest.cells);
  return {render_report_text(aggregate, load.manifest),
          render_report_json(aggregate, load.manifest)};
}

/// A file at a crash point: its first `synced` bytes are durable, the
/// rest up to `written` only in the page cache.
struct FileCut {
  std::size_t synced = 0;
  std::size_t written = 0;
};

/// Every content a machine crash can leave of `bytes` cut at `cut`
/// (an empty string stands for no file).
std::set<std::string> crash_states(const std::string& bytes,
                                   const FileCut& cut, std::size_t page) {
  const std::size_t first = cut.synced / page;
  const std::size_t pages =
      cut.written > cut.synced ? (cut.written - 1) / page - first + 1 : 0;
  EXPECT_LE(pages, 16u);
  std::set<std::string> out;
  for (std::uint32_t kept = 0; kept < (1U << pages); ++kept) {
    std::string state = bytes.substr(0, cut.written);
    std::size_t end = cut.synced;
    for (std::size_t p = 0; p < pages; ++p) {
      const std::size_t lo = std::max(cut.synced, (first + p) * page);
      const std::size_t hi = std::min(cut.written, (first + p + 1) * page);
      if ((kept >> p & 1U) != 0) {
        end = hi;
      } else {
        std::fill(state.begin() + static_cast<std::ptrdiff_t>(lo),
                  state.begin() + static_cast<std::ptrdiff_t>(hi), '\0');
      }
    }
    out.insert(state);
    out.insert(state.substr(0, end));
  }
  return out;
}

void write_file(const std::string& path, const std::string& bytes) {
  if (bytes.empty()) return;
  std::ofstream(path, std::ios::binary) << bytes;
}

TEST(CrashCut, EveryCrashStateResumesToTheSameReport) {
  const CampaignManifest manifest = cut_manifest();
  CampaignOptions options;
  options.manifest = manifest;
  options.durable = false;
  options.poll_ms = 5;

  // The reference: the campaign run without interruption.
  options.dir = fresh_dir("reference");
  const CampaignOutcome reference = CampaignRunner::run(options);
  ASSERT_TRUE(reference.ok) << reference.error;
  const auto want = reports(options.dir);

  // One fsync'd worker run, recorded call by call.
  options.dir = fresh_dir("recorded");
  ASSERT_EQ(::mkdir(options.dir.c_str(), 0755), 0);
  ASSERT_TRUE(write_manifest(options.dir, manifest));
  const std::string manifest_bytes =
      read_file(manifest_path(options.dir)).value_or("");
  g_paths = {shard_checkpoint_path(options.dir, 0),
             shard_results_path(options.dir, 0)};
  std::vector<IoEvent> events;
  options.durable = true;
  g_events = &events;
  const int exit_code = detail::run_shard_worker(options, 0, kGroup);
  g_events = nullptr;
  options.durable = false;
  ASSERT_EQ(exit_code, 0);
  const std::array<std::string, 2> final_bytes = {
      read_file(g_paths[0]).value_or(""), read_file(g_paths[1]).value_or("")};
  // Two fsyncs per group: the rows, then the checkpoint.
  std::vector<int> synced;
  for (const IoEvent& event : events) {
    if (event.sync) synced.push_back(event.file);
  }
  ASSERT_EQ(synced, (std::vector<int>{1, 0, 1, 0, 1, 0}));

  // Crash points: before the worker made its files, once it had (the
  // checkpoint's header is durable from its atomic creation), and after
  // each recorded call.
  std::vector<std::array<FileCut, 2>> points(1);
  std::array<FileCut, 2> now;
  now[0].synced = now[0].written = final_bytes[0].find('\n') + 1;
  points.push_back(now);
  for (const IoEvent& event : events) {
    FileCut& file = now[static_cast<std::size_t>(event.file)];
    file.written = event.size;
    if (event.sync) file.synced = event.size;
    points.push_back(now);
  }

  options.dir = fresh_dir("state");
  std::set<std::pair<std::string, std::string>> resumed;
  std::size_t states = 0;
  int failures = 0;
  for (std::size_t point = 0; point < points.size(); ++point) {
    for (const std::string& ckpt :
         crash_states(final_bytes[0], points[point][0], kCheckpointPage)) {
      std::string ckpt_key = ckpt;
      std::size_t committed_rows = 0;
      if (!ckpt.empty()) {
        const CheckpointLoad load = parse_checkpoint(ckpt);
        ASSERT_TRUE(load.ok) << "crash point " << point << ": "
                             << load.error;
        ckpt_key.resize(ckpt.size() - load.torn_bytes);
        committed_rows = load.committed_row_bytes;
      }
      for (const std::string& rows :
           crash_states(final_bytes[1], points[point][1], kRowPage)) {
        ++states;
        const std::string rows_key =
            rows.size() < committed_rows
                ? "short " + rows
                : rows.substr(0, recovered_results_length(rows,
                                                          committed_rows));
        if (!resumed.emplace(ckpt_key, rows_key).second) continue;
        std::filesystem::remove_all(options.dir);
        ASSERT_EQ(::mkdir(options.dir.c_str(), 0755), 0);
        write_file(manifest_path(options.dir), manifest_bytes);
        write_file(shard_checkpoint_path(options.dir, 0), ckpt);
        write_file(shard_results_path(options.dir, 0), rows);
        const CampaignOutcome outcome =
            CampaignRunner::resume(options.dir, options);
        const auto got = reports(options.dir);
        const bool lint_clean = !lint_campaign(options.dir).has_errors();
        if (outcome.ok && got == want && lint_clean) continue;
        ADD_FAILURE() << "crash point " << point << " (checkpoint "
                      << ckpt.size() << " bytes, rows " << rows.size()
                      << " bytes): "
                      << (!outcome.ok  ? "resume failed: " + outcome.error
                          : got != want ? std::string("report differs")
                                        : std::string("lint errors"));
        if (++failures == 3) return;
      }
    }
  }
  std::printf("%zu crash points, %zu states, %zu resumed\n", points.size(),
              states, resumed.size());
}

}  // namespace
}  // namespace coeff::campaign
