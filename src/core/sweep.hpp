// Parallel experiment sweep runner.
//
// The paper's evaluation (§IV) is a grid of independent simulations —
// scheme x BER x segment size x seed. Each cell is share-nothing by
// construction: run_experiment builds its own cluster, scheduler, Rng,
// and FaultInjector per call, so cells can run on as many OS threads as
// the host offers while producing results identical to a serial run.
//
// Output ordering is deterministic: results land in the same order as
// the input cells regardless of which worker finished first, so figure
// binaries print byte-identical tables at any --jobs value.
#pragma once

#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace coeff::core {

/// One grid point of a sweep.
struct SweepCell {
  ExperimentConfig config;
  SchemeKind scheme = SchemeKind::kCoEfficient;
  /// Stable identifier recorded in the sweep report (e.g.
  /// "fig5/minislots=25/ber=1e-7/CoEfficient").
  std::string label;
};

struct SweepCellResult {
  ExperimentResult result;
  double wall_seconds = 0.0;  ///< host wall-clock spent simulating the cell
  std::string label;
};

struct SweepReport {
  /// Same order as the input cells.
  std::vector<SweepCellResult> cells;
  double total_wall_seconds = 0.0;
  /// Sum of per-cell wall times: what a serial run would have cost.
  double serial_estimate_seconds = 0.0;
  int jobs = 1;

  [[nodiscard]] double speedup_estimate() const {
    return total_wall_seconds <= 0.0
               ? 1.0
               : serial_estimate_seconds / total_wall_seconds;
  }
};

class SweepRunner {
 public:
  /// jobs <= 0 resolves through the COEFF_JOBS environment variable
  /// when its whole value is a positive integer, else
  /// std::thread::hardware_concurrency().
  explicit SweepRunner(int jobs = 0);

  [[nodiscard]] int jobs() const { return jobs_; }

  /// Run every cell and return per-cell results in input order.
  /// jobs() == 1 runs inline on the calling thread (the serial
  /// reference); otherwise cells are distributed over a thread pool.
  /// The first cell exception (in input order) is rethrown after all
  /// workers finish.
  [[nodiscard]] SweepReport run(const std::vector<SweepCell>& cells) const;

  /// Worker-count resolution: explicit request > COEFF_JOBS > hardware.
  [[nodiscard]] static int resolve_jobs(int requested);

 private:
  int jobs_;
};

/// Render a report as a JSON document (suite name, jobs, per-cell and
/// total wall clock, estimated speedup vs serial, headline metrics).
[[nodiscard]] std::string sweep_report_json(const SweepReport& report,
                                            const std::string& suite);

/// Write sweep_report_json to `path` (default used by the bench
/// binaries: BENCH_sweep.json in the working directory).
void write_sweep_json(const SweepReport& report, const std::string& suite,
                      const std::string& path);

}  // namespace coeff::core
