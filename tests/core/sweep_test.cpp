// SweepRunner: the parallel grid must be indistinguishable from the
// serial one — same cell order, bit-identical metrics — and the JSON
// report must carry per-cell and total wall clock.
#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fault/fault_model.hpp"
#include "net/workloads.hpp"

namespace coeff::core {
namespace {

// The full Fig.5 grid (16 cells: 4 minislot sizes x 2 BERs x 2
// schemes) replayed serially and with 4 workers. This is the
// acceptance check for the whole subsystem: every headline metric a
// figure binary prints must match bit-for-bit.
TEST(SweepRunnerTest, ParallelMatchesSerialOnFullFig5Grid) {
  const auto cells = bench::fig5_cells();
  ASSERT_EQ(cells.size(), 16u);

  const SweepReport serial = SweepRunner(1).run(cells);
  const SweepReport parallel = SweepRunner(4).run(cells);
  ASSERT_EQ(serial.cells.size(), cells.size());
  ASSERT_EQ(parallel.cells.size(), cells.size());
  EXPECT_EQ(serial.jobs, 1);
  EXPECT_EQ(parallel.jobs, 4);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(cells[i].label);
    EXPECT_EQ(serial.cells[i].label, cells[i].label);
    EXPECT_EQ(parallel.cells[i].label, cells[i].label);
    const ExperimentResult& a = serial.cells[i].result;
    const ExperimentResult& b = parallel.cells[i].result;
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.run.summary(), b.run.summary());
    EXPECT_EQ(a.run.overall_miss_ratio(), b.run.overall_miss_ratio());
    EXPECT_EQ(a.run.running_time.as_seconds(), b.run.running_time.as_seconds());
    EXPECT_EQ(a.cycles_run, b.cycles_run);
    EXPECT_EQ(a.reliability_scheduled, b.reliability_scheduled);
    EXPECT_EQ(a.drained, b.drained);
  }
}

// The fault-resilience layer must compose with the parallel runner:
// correlated fault models, a mid-run BER step and the online re-planning
// monitor in every cell, jobs=1 vs jobs=4 bit-identical (acceptance
// criterion for the resilience PR).
TEST(SweepRunnerTest, FaultModelAndMonitorCellsAreDeterministicAcrossJobs) {
  std::vector<SweepCell> cells;
  for (const auto kind :
       {fault::FaultModelKind::kIid, fault::FaultModelKind::kGilbertElliott,
        fault::FaultModelKind::kCommonMode}) {
    for (const std::uint64_t seed : {42ULL, 7ULL}) {
      SweepCell cell;
      cell.config.cluster = paper_cluster_apps();
      cell.config.statics = net::brake_by_wire();
      cell.config.ber = 1e-7;
      cell.config.seed = seed;
      cell.config.batch_window = sim::millis(400);
      cell.config.fault_model.kind = kind;
      cell.config.fault_model.common_fraction = 0.5;
      cell.config.fault_model.gilbert_elliott.p_good_to_bad = 0.01;
      cell.config.ber_step_at = sim::millis(150);
      cell.config.ber_step = 1e-5;
      cell.config.enable_monitor = true;
      cell.config.monitor.window_cycles = 50;
      cell.config.monitor.min_window_frames = 200;
      cell.config.monitor.cooldown_cycles = 50;
      cell.label = std::string("resil/") + fault::to_string(kind) +
                   "/seed=" + std::to_string(seed);
      cells.push_back(std::move(cell));
    }
  }

  const SweepReport serial = SweepRunner(1).run(cells);
  const SweepReport parallel = SweepRunner(4).run(cells);
  ASSERT_EQ(serial.cells.size(), cells.size());
  ASSERT_EQ(parallel.cells.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE(cells[i].label);
    const ExperimentResult& a = serial.cells[i].result;
    const ExperimentResult& b = parallel.cells[i].result;
    EXPECT_EQ(a.run.summary(), b.run.summary());
    EXPECT_EQ(a.run.plan_swaps, b.run.plan_swaps);
    EXPECT_EQ(a.run.dynamic_frames_shed, b.run.dynamic_frames_shed);
    EXPECT_EQ(a.final_plan.copies, b.final_plan.copies);
    EXPECT_EQ(a.run.statics.copies_corrupted, b.run.statics.copies_corrupted);
    EXPECT_EQ(a.cycles_run, b.cycles_run);
  }
}

TEST(SweepRunnerTest, ResolveJobsPrefersExplicitThenEnvThenHardware) {
  ASSERT_EQ(setenv("COEFF_JOBS", "3", /*overwrite=*/1), 0);
  EXPECT_EQ(SweepRunner::resolve_jobs(5), 5);  // explicit wins
  EXPECT_EQ(SweepRunner::resolve_jobs(0), 3);  // env fallback
  ASSERT_EQ(unsetenv("COEFF_JOBS"), 0);
  const int hardware = SweepRunner::resolve_jobs(0);
  EXPECT_GE(hardware, 1);  // hardware fallback
  // A value that is not a whole positive integer is ignored; the last
  // input differs from the hardware count, so a prefix parse shows.
  for (const std::string& bad : {std::string("abc"), std::string("4x"),
                                 std::string("0"), std::string("-2"),
                                 std::string(),
                                 std::to_string(hardware + 1) + "x"}) {
    ASSERT_EQ(setenv("COEFF_JOBS", bad.c_str(), /*overwrite=*/1), 0);
    EXPECT_EQ(SweepRunner::resolve_jobs(0), hardware) << "COEFF_JOBS=" << bad;
  }
  ASSERT_EQ(unsetenv("COEFF_JOBS"), 0);
}

TEST(SweepRunnerTest, EmptyGridYieldsEmptyReport) {
  const SweepReport report = SweepRunner(4).run({});
  EXPECT_TRUE(report.cells.empty());
  EXPECT_EQ(report.serial_estimate_seconds, 0.0);
}

TEST(SweepReportJsonTest, CarriesPerCellAndTotalWallClock) {
  auto cells = bench::fig5_cells();
  cells.resize(2);
  const SweepReport report = SweepRunner(1).run(cells);
  const std::string json = sweep_report_json(report, "unit \"suite\"");

  EXPECT_NE(json.find("\"suite\": \"unit \\\"suite\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"total_wall_s\": "), std::string::npos);
  EXPECT_NE(json.find("\"serial_estimate_s\": "), std::string::npos);
  EXPECT_NE(json.find("\"speedup_vs_serial_estimate\": "), std::string::npos);
  std::size_t labels = 0;
  for (std::size_t pos = json.find("\"label\": "); pos != std::string::npos;
       pos = json.find("\"label\": ", pos + 1)) {
    ++labels;
  }
  EXPECT_EQ(labels, 2u);
  for (const SweepCellResult& cell : report.cells) {
    EXPECT_GE(cell.wall_seconds, 0.0);
    EXPECT_NE(json.find("\"wall_s\": "), std::string::npos);
  }
}

}  // namespace
}  // namespace coeff::core
