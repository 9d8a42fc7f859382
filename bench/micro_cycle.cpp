// Cycle-walk microbenchmark: simulated communication cycles per
// wall-clock second, for each scheme, through the Cluster's one cycle
// walk.
//
// Two suites bracket the walk's cost. The loaded suite replays the
// baseline_comparison workload (synthetic statics + bursty SAE
// aperiodics, 50 minislots, BER=1e-7), where per-frame accounting
// dominates; the sparse suite is walk-bound. The workload window is
// fixed, so the cycle count per run is deterministic; each (suite,
// scheme) cell reports the median walk time of N repetitions and
// refuses to report when a repetition diverges from the first. This is
// a local tool for before/after comparisons on one machine; the
// benchmark of record is perfbench/ (BENCHMARK.json).
#include <cstdint>

#include "bench_common.hpp"

namespace coeff::bench {
namespace {

/// The baseline_comparison workload, with the batch window overridden
/// so the run length (and hence the benchmarked cycle count) is a
/// command-line knob instead of the figure's 2 s default.
core::ExperimentConfig micro_config(std::int64_t window_ms) {
  core::ExperimentConfig config;
  config.cluster = core::paper_cluster_dynamic_suite(50);
  apply_loaded_defaults(config);
  config.ber = 1e-7;
  config.batch_window = sim::millis(window_ms);
  return config;
}

/// Steady-state workload: long-period statics and an empty dynamic
/// segment, so most slots and all minislots are idle. The loaded suite
/// is transmission-bound (per-frame bookkeeping dominates); this suite
/// is walk-bound and isolates the walk's own overhead — chunked
/// decisions, event-queue probing, idle-minislot skipping.
core::ExperimentConfig sparse_config(std::int64_t window_ms) {
  core::ExperimentConfig config;
  config.cluster = core::paper_cluster_dynamic_suite(50);
  // Hand-rolled long-period set: power-of-two multiples of the 5 ms
  // cycle keep the template hyperperiod at 64 rows (random multiples
  // would make the lcm — and the template — explode).
  constexpr std::int64_t kPeriodsMs[] = {40, 80, 160, 320};
  sim::Rng rng(42);
  for (int i = 0; i < 40; ++i) {
    net::Message m;
    m.id = i + 1;
    m.name = "sparse" + std::to_string(i + 1);
    m.node = i % net::kPaperNodeCount;
    m.kind = net::MessageKind::kStatic;
    m.period = sim::millis(kPeriodsMs[i % 4]);
    m.deadline = sim::millis(kPeriodsMs[i % 4] / 2);
    m.size_bits = rng.uniform_int(256, 1280);
    config.statics.add(m);
  }
  config.ber = 1e-7;
  config.batch_window = sim::millis(window_ms);
  return config;
}

struct Suite {
  const char* name;
  const char* title;
  core::ExperimentConfig (*config)(std::int64_t window_ms);
};

constexpr Suite kSuites[] = {
    {"loaded", "loaded synthetic + SAE aperiodics, 50 minislots, BER=1e-7",
     micro_config},
    {"sparse", "steady-state: 40 long-period statics, idle dynamic segment",
     sparse_config},
};

struct MicroOptions {
  int reps = 5;
  std::int64_t window_ms = 400;
  const Suite* only = nullptr;  // nullptr = all suites
};

struct CellResult {
  core::SchemeKind scheme;
  std::int64_t cycles = 0;
  double median_seconds = 0.0;
  [[nodiscard]] double cycles_per_second() const {
    return median_seconds > 0.0
               ? static_cast<double>(cycles) / median_seconds
               : 0.0;
  }
};

CellResult run_cell(const MicroOptions& opt, const Suite& suite,
                    core::SchemeKind scheme) {
  const core::ExperimentConfig config = suite.config(opt.window_ms);
  CellResult cell{scheme, 0, 0.0};
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(opt.reps));
  double miss_ratio = 0.0;
  for (int rep = 0; rep < opt.reps; ++rep) {
    const core::ExperimentResult result = core::run_experiment(config, scheme);
    // Time only the cycle walk: scheduler construction and plan solving
    // are setup and would dilute the walk's number.
    seconds.push_back(result.walk_seconds);
    // Deterministic workload: every repetition must replay the exact
    // same simulation, or the medians are measuring different work.
    if (rep == 0) {
      cell.cycles = result.cycles_run;
      miss_ratio = result.run.overall_miss_ratio();
    } else if (result.cycles_run != cell.cycles ||
               result.run.overall_miss_ratio() != miss_ratio) {
      std::fprintf(stderr,
                   "micro_cycle: %s/%s repetition diverged (cycles %lld vs "
                   "%lld) — walk bug, refusing to report\n",
                   suite.name, core::to_string(scheme),
                   static_cast<long long>(result.cycles_run),
                   static_cast<long long>(cell.cycles));
      std::exit(1);
    }
  }
  cell.median_seconds = median_of(seconds);
  return cell;
}

}  // namespace
}  // namespace coeff::bench

int main(int argc, char** argv) {
  using namespace coeff::bench;
  namespace cli = coeff::cli;
  MicroOptions opt;
  const cli::Table table{
      "micro_cycle [options]",
      "Cycle-walk throughput (cycles/s) of each scheme; compare two builds\n"
      "on the same machine.",
      {cli::number("--reps", "N",
                    "repetitions per cell; the median is reported", opt.reps,
                    1, 1000),
       // One simulated hour: far past any useful window, and well inside
       // the nanosecond clock's range.
       cli::number("--window-ms", "MS",
                    "release window; fixes the cycle count per run",
                    opt.window_ms, std::int64_t{1}, std::int64_t{3'600'000}),
       cli::choice("--suite", "NAME", "run only the named suite", opt.only,
                   {{"loaded", &kSuites[0]}, {"sparse", &kSuites[1]}})}};
  if (const auto code = cli::early_exit(
          table, argv[0], std::vector<std::string>(argv + 1, argv + argc))) {
    return *code;
  }

  constexpr coeff::core::SchemeKind kSchemes[] = {
      coeff::core::SchemeKind::kCoEfficient, coeff::core::SchemeKind::kFspec,
      coeff::core::SchemeKind::kHosa};

  std::printf("micro_cycle — cycle-walk throughput, %lld ms window, "
              "median of %d\n",
              static_cast<long long>(opt.window_ms), opt.reps);
  for (const Suite& suite : kSuites) {
    if (opt.only != nullptr && opt.only != &suite) continue;
    print_header(suite.title);
    std::printf("%-12s | %9s %12s %14s\n", "scheme", "cycles", "median[s]",
                "cycles/s");
    for (const auto scheme : kSchemes) {
      const CellResult c = run_cell(opt, suite, scheme);
      std::printf("%-12s | %9lld %12.4f %14.0f\n",
                  coeff::core::to_string(c.scheme),
                  static_cast<long long>(c.cycles), c.median_seconds,
                  c.cycles_per_second());
    }
  }
  return 0;
}
