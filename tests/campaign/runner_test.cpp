// Campaign runner robustness tests: refusal to overwrite, idempotent
// resume, poison-cell retry + quarantine with the repro seed, watchdog
// timeouts, disk-full degradation, the manifest-consistency lint over
// everything the runner leaves behind, and a supervisor that wakes when
// its workers exit.
#include "campaign/runner.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "campaign/lint.hpp"
#include "campaign/report.hpp"

namespace coeff::campaign {
namespace {

CampaignManifest small_manifest(std::int64_t cells, int shards) {
  CampaignManifest manifest;
  manifest.name = "test";
  manifest.seed = 21;
  manifest.cells = cells;
  manifest.shards = shards;
  manifest.watchdog_ms = 20000;
  manifest.backoff_base_ms = 20;
  manifest.distribution.max_nodes = 12;
  manifest.distribution.window_ms = 25;
  manifest.distribution.schemes = {core::SchemeKind::kCoEfficient,
                                   core::SchemeKind::kFspec,
                                   core::SchemeKind::kHosa};
  return manifest;
}

std::string fresh_dir(const char* tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string dir = std::string("campaign_") + info->name() + "_" + tag;
  const std::string cmd = "rm -rf " + dir;
  (void)std::system(cmd.c_str());
  return dir;
}

CampaignOptions options_for(const std::string& dir,
                            const CampaignManifest& manifest) {
  CampaignOptions options;
  options.dir = dir;
  options.manifest = manifest;
  options.durable = false;  // kills in tests never outlive the page cache
  options.poll_ms = 5;
  return options;
}

std::string report_json(const std::string& dir) {
  const ManifestLoad load = load_manifest(manifest_path(dir));
  if (!load.ok) return "unloadable: " + load.error;
  const ResultScan scan = scan_results(dir, load.manifest);
  return render_report_json(aggregate_rows(scan.rows, load.manifest.cells),
                            load.manifest);
}

TEST(CampaignRunner, RefusesToOverwriteAnExistingCampaign) {
  const std::string dir = fresh_dir("dir");
  const CampaignManifest manifest = small_manifest(4, 2);
  ASSERT_TRUE(CampaignRunner::run(options_for(dir, manifest)).ok);
  const CampaignOutcome again =
      CampaignRunner::run(options_for(dir, manifest));
  EXPECT_FALSE(again.ok);
  EXPECT_NE(again.error.find("resume"), std::string::npos);
}

TEST(CampaignRunner, ResumeOfCompleteCampaignIsIdempotent) {
  const std::string dir = fresh_dir("dir");
  const CampaignManifest manifest = small_manifest(6, 2);
  ASSERT_TRUE(CampaignRunner::run(options_for(dir, manifest)).ok);
  const std::string before = report_json(dir);
  CampaignOptions overrides;
  overrides.durable = false;
  const CampaignOutcome resumed = CampaignRunner::resume(dir, overrides);
  EXPECT_TRUE(resumed.ok) << resumed.error;
  EXPECT_EQ(resumed.completed, 6);
  EXPECT_EQ(report_json(dir), before);
}

/// A cell that crashes its worker on every attempt must be retried
/// exactly max_attempts times, then quarantined with the repro seed —
/// the acceptance criterion for poison handling.
TEST(CampaignRunner, PoisonCellIsRetriedThenQuarantinedWithReproSeed) {
  const std::string dir = fresh_dir("dir");
  CampaignManifest manifest = small_manifest(10, 2);
  manifest.max_attempts = 2;
  CampaignOptions options = options_for(dir, manifest);
  options.crash_cells = {5};
  const CampaignOutcome outcome = CampaignRunner::run(options);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.completed, 9);
  EXPECT_EQ(outcome.quarantined, 1);
  EXPECT_GE(outcome.respawns, 2);  // two crashes -> two respawns

  const ManifestLoad load = load_manifest(manifest_path(dir));
  ASSERT_TRUE(load.ok);
  const ResultScan scan = scan_results(dir, load.manifest);
  const CampaignAggregate agg =
      aggregate_rows(scan.rows, load.manifest.cells);
  ASSERT_EQ(agg.quarantined.size(), 1u);
  const ResultRow& row = agg.quarantined[0];
  EXPECT_EQ(row.cell, 5);
  EXPECT_EQ(row.attempts, 2);
  EXPECT_EQ(row.reason, "crash");
  // The recorded repro seed is the cell's generated seed.
  const ScenarioGenerator generator(manifest.seed, manifest.distribution);
  EXPECT_EQ(row.seed, generator.spec(5).seed);
  EXPECT_FALSE(lint_campaign(dir).has_errors());
}

/// A hung cell trips the per-cell watchdog: the shard is killed,
/// retried with backoff, and the cell quarantined once the attempt
/// budget is spent.
TEST(CampaignRunner, HungCellTripsWatchdogAndIsQuarantined) {
  const std::string dir = fresh_dir("dir");
  CampaignManifest manifest = small_manifest(8, 2);
  manifest.watchdog_ms = 400;
  manifest.max_attempts = 2;
  manifest.backoff_base_ms = 30;
  CampaignOptions options = options_for(dir, manifest);
  options.hang_cells = {3};
  const CampaignOutcome outcome = CampaignRunner::run(options);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.completed, 7);
  EXPECT_EQ(outcome.quarantined, 1);
  EXPECT_GE(outcome.respawns, 2);

  const ManifestLoad load = load_manifest(manifest_path(dir));
  ASSERT_TRUE(load.ok);
  const CampaignAggregate agg = aggregate_rows(
      scan_results(dir, load.manifest).rows, load.manifest.cells);
  ASSERT_EQ(agg.quarantined.size(), 1u);
  EXPECT_EQ(agg.quarantined[0].cell, 3);
  EXPECT_EQ(agg.quarantined[0].reason, "watchdog-timeout");
  EXPECT_FALSE(lint_campaign(dir).has_errors());
}

/// Disk-full degradation: pointing a shard's result file at /dev/full
/// makes every row write fail with ENOSPC. The campaign must finish
/// with exact accounting (checkpoints intact, manifest never corrupt)
/// and flag itself degraded instead of dying.
TEST(CampaignRunner, DiskFullShedsDetailButNeverCorruptsState) {
  if (::access("/dev/full", W_OK) != 0) {
    GTEST_SKIP() << "/dev/full not writable in this environment";
  }
  const std::string dir = fresh_dir("dir");
  const CampaignManifest manifest = small_manifest(6, 2);
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  // Pre-plant the symlink; the worker opens the path for append.
  ASSERT_EQ(::symlink("/dev/full", shard_results_path(dir, 0).c_str()), 0);
  const CampaignOutcome outcome =
      CampaignRunner::run(options_for(dir, manifest));
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_TRUE(outcome.degraded);
  EXPECT_EQ(outcome.completed, 6);

  const ManifestLoad load = load_manifest(manifest_path(dir));
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.manifest.status, "degraded");
  // Shard 0's checkpoint still accounts every cell and records the
  // degradation; shard 1's rows survived untouched.
  const CheckpointLoad ckpt = load_checkpoint(shard_checkpoint_path(dir, 0));
  ASSERT_TRUE(ckpt.ok) << ckpt.error;
  bool saw_degrade = false;
  for (const auto& record : ckpt.records) {
    saw_degrade |= record.kind == CheckpointRecordKind::kDegrade;
  }
  EXPECT_TRUE(saw_degrade);
}

/// The supervisor sleeps on its workers' exits, not a fixed poll: with
/// a 5 s poll interval, an 8-cell campaign must not wait out one.
TEST(CampaignRunner, ExitWakesTheSupervisor) {
  const std::string dir = fresh_dir("dir");
  CampaignOptions options = options_for(dir, small_manifest(8, 2));
  options.poll_ms = 5000;
  const auto start = std::chrono::steady_clock::now();
  const CampaignOutcome outcome = CampaignRunner::run(options);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.completed, 8);
  EXPECT_LT(elapsed, std::chrono::milliseconds(2500));
}

TEST(CampaignRunner, ParseCellList) {
  using Cells = std::vector<std::int64_t>;
  EXPECT_EQ(CampaignRunner::parse_cell_list(nullptr), Cells{});
  EXPECT_EQ(CampaignRunner::parse_cell_list(""), Cells{});
  EXPECT_EQ(CampaignRunner::parse_cell_list("3,17,99"), (Cells{3, 17, 99}));
  // Anything but comma-separated cell indices is an error, not a
  // silently shorter list.
  EXPECT_EQ(CampaignRunner::parse_cell_list("x1"), std::nullopt);
  EXPECT_EQ(CampaignRunner::parse_cell_list("-3"), std::nullopt);
  EXPECT_EQ(CampaignRunner::parse_cell_list("1;2"), std::nullopt);
}

}  // namespace
}  // namespace coeff::campaign
