// Shared helpers for the figure-reproduction benchmark binaries.
//
// Each binary regenerates one table/figure of the paper's evaluation
// (§IV) and prints the series as aligned text rows; EXPERIMENTS.md maps
// binaries to figures and records paper-vs-measured values.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "net/workloads.hpp"

namespace coeff::bench {

/// BBW + ACC merged, as released by the paper's application scenarios.
inline net::MessageSet app_statics() {
  return net::brake_by_wire().merged_with(net::adaptive_cruise());
}

/// Synthetic static suite of `count` messages (§IV-A parameters).
inline net::MessageSet synthetic_statics(std::size_t count,
                                         std::uint64_t seed) {
  sim::Rng rng(seed);
  net::SyntheticStaticOptions opt;
  opt.count = count;
  return net::synthetic_static(opt, rng);
}

/// SAE-style aperiodic set (30 messages, 50 ms) for a cluster with the
/// given number of static slots. `heavy` enlarges the messages so the
/// dynamic segment is contended, which the running-time experiments
/// need (the paper's SAE class-C set includes multi-frame payloads).
inline net::MessageSet sae_dynamics(int static_slots, std::uint64_t seed,
                                    bool heavy = false) {
  sim::Rng rng(seed);
  net::SaeAperiodicOptions opt;
  opt.static_slots = static_slots;
  if (heavy) {
    opt.min_bits = 256;
    opt.max_bits = 2000;  // within one frame (254 bytes)
  }
  return net::sae_aperiodic(opt, rng);
}

/// The loaded synthetic configuration the dynamic-segment figures use:
/// 100 static messages (more than FSPEC's 80 exclusive slots can hold)
/// and bursty aperiodic arrivals (interrupt-driven SAE traffic arrives
/// in clumps), which is what exposes FTDMA priority starvation.
inline void apply_loaded_defaults(core::ExperimentConfig& config) {
  config.statics = synthetic_statics(100, 42);
  config.dynamics = sae_dynamics(80, 7, /*heavy=*/true);
  config.arrivals.process = net::ArrivalProcess::kBursty;
  config.arrivals.burst = 3;
  config.sil = fault::Sil::kSil3;
  config.batch_window = sim::millis(2000);
  config.seed = 42;
}

/// The paper pairs each BER with a reliability goal ("BER = 1e-7 and
/// 1e-9 ... correspond to different reliability goals"): 1e-7 with the
/// SIL3 budget, 1e-9 with the stricter SIL4 budget.
inline fault::Sil sil_for_ber(double ber) {
  return ber < 1e-8 ? fault::Sil::kSil4 : fault::Sil::kSil3;
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Median of a sample set (destructive on a copy). The cycle
/// microbenchmark reports medians: a background-load spike can only
/// shift one repetition, not the reported number.
inline double median_of(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 != 0
             ? samples[mid]
             : 0.5 * (samples[mid - 1] + samples[mid]);
}

/// Run the cell grid through SweepRunner on `jobs` workers (0 =
/// COEFF_JOBS, else hardware threads), write the timing JSON to
/// `sweep_json` unless it is empty, and print a one-line summary to
/// stderr.
inline core::SweepReport run_sweep(const std::string& suite,
                                   const std::vector<core::SweepCell>& cells,
                                   int jobs, const std::string& sweep_json) {
  const core::SweepRunner runner(jobs);
  core::SweepReport report = runner.run(cells);
  if (!sweep_json.empty()) {
    // A bad report path must not discard a finished sweep: warn and
    // still print the figure.
    try {
      core::write_sweep_json(report, suite, sweep_json);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[sweep] warning: %s\n", e.what());
    }
  }
  const std::string sink =
      sweep_json.empty() ? std::string() : " -> " + sweep_json;
  std::fprintf(stderr,
               "[sweep] %s: %zu cells, jobs=%d, wall=%.3fs, serial=%.3fs "
               "(%.2fx)%s\n",
               suite.c_str(), report.cells.size(), report.jobs,
               report.total_wall_seconds, report.serial_estimate_seconds,
               report.speedup_estimate(), sink.c_str());
  return report;
}

/// Shared prologue of every figure binary: parse the common flags (exit
/// 2 on a bad one), run the grid through the sweep reporter, and print
/// the figure banner. Keeps the six binaries down to "build cells,
/// format rows". Figure rows on stdout are byte-identical for any
/// --jobs; timing lives on stderr and in the JSON report.
inline core::SweepReport run_figure(int argc, char** argv,
                                    const std::string& suite,
                                    const std::string& title,
                                    const std::vector<core::SweepCell>& cells) {
  int jobs = 0;
  std::string sweep_json = "BENCH_sweep.json";
  const cli::Table table{std::string(argv[0]) + " [options]",
                         "Regenerates " + title + ".",
                         cli::sweep_rows(jobs, sweep_json)};
  if (const auto code = cli::early_exit(
          table, argv[0], std::vector<std::string>(argv + 1, argv + argc))) {
    std::exit(*code);
  }
  core::SweepReport report = run_sweep(suite, cells, jobs, sweep_json);
  std::printf("%s\n", title.c_str());
  return report;
}

/// The Fig.5 grid — minislots × BER × scheme, in print order. Shared
/// with the sweep determinism test, which replays the full grid under
/// different job counts and requires identical results.
inline std::vector<core::SweepCell> fig5_cells() {
  std::vector<core::SweepCell> cells;
  for (std::int64_t minislots : {25, 50, 75, 100}) {
    for (double ber : {1e-7, 1e-9}) {
      core::ExperimentConfig config;
      config.cluster = core::paper_cluster_dynamic_suite(minislots);
      apply_loaded_defaults(config);
      config.ber = ber;
      config.sil = sil_for_ber(ber);
      for (const auto scheme :
           {core::SchemeKind::kCoEfficient, core::SchemeKind::kFspec}) {
        cells.push_back({config, scheme,
                         "minislots=" + std::to_string(minislots) +
                             "/ber=" + (ber < 1e-8 ? "1e-9" : "1e-7") + "/" +
                             core::to_string(scheme)});
      }
    }
  }
  return cells;
}

}  // namespace coeff::bench
