// Helpers shared by the workloads that call into the simulator: input
// generation, RunStats checks and digests, and the traced probes that
// time each set-up layer through its own public entry point.
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"
#include "core/experiment.hpp"

namespace coeff::analysis {}
namespace coeff::campaign {}

namespace perfbench {

namespace analysis = coeff::analysis;
namespace campaign = coeff::campaign;
namespace core = coeff::core;
namespace fault = coeff::fault;
namespace net = coeff::net;
namespace sched = coeff::sched;
namespace sim = coeff::sim;

/// splitmix64: derives independent per-operation seeds from --seed.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

constexpr core::SchemeKind kSchemes[] = {core::SchemeKind::kCoEfficient,
                                         core::SchemeKind::kFspec,
                                         core::SchemeKind::kHosa};

/// Lower-case scheme tag used in metric names ("coefficient", ...).
[[nodiscard]] const char* scheme_key(core::SchemeKind scheme);

/// The paper's loaded synthetic configuration (bench/bench_common.hpp's
/// apply_loaded_defaults on the 50-minislot cluster): 100 synthetic
/// statics, 30 heavy SAE dynamics with bursty arrivals, BER 1e-7, SIL3.
/// The three seeds pick the static set, the dynamic set and the run;
/// (42, 7, 42) is exactly the configuration bench/micro_cycle times.
[[nodiscard]] core::ExperimentConfig loaded_config(std::uint64_t statics_seed,
                                                   std::uint64_t dynamics_seed,
                                                   std::uint64_t run_seed,
                                                   std::int64_t window_ms);

/// Digest of every integer counter of a run (and the two latency
/// means), so a pure speed-up must leave it unchanged.
[[nodiscard]] std::string run_digest(const core::ExperimentResult& result);

/// Conservation laws a run must obey; empty when it does, else the
/// first violated law.
[[nodiscard]] std::string check_run(const core::ExperimentResult& result);

/// Traced only: call each set-up layer the way run_experiment does and
/// record one span per call (net.arrivals, fault.plan_solve,
/// sched.table_build, core.template_build, core.scheduler_ctor.<scheme>).
/// Adds the arrival count and planned copies to `counts`.
void probe_setup_layers(const core::ExperimentConfig& config,
                        core::SchemeKind scheme,
                        std::map<std::string, double>& counts);

/// Run one experiment inside a "core.run_experiment" span and attach a
/// "flexray.walk" child span of the reported walk duration.
[[nodiscard]] core::ExperimentResult traced_run(
    const core::ExperimentConfig& config, core::SchemeKind scheme);

/// Per-layer figures every simulating workload derives from its walk
/// samples: walk ns per cycle by scheme, ns per frame, compiled share.
struct WalkTally {
  std::map<core::SchemeKind, std::vector<double>> ns_per_cycle;
  double walk_s = 0.0;
  double run_s = 0.0;
  double frames = 0.0;
  double cycles = 0.0;
  double compiled = 0.0;

  void add(const core::ExperimentResult& result, double run_wall_s);
  void emit(std::map<std::string, double>& values) const;
};

/// Medians of the set-up probe spans into `values`.
void emit_setup_probes(const Tracer& t, std::map<std::string, double>& values);

}  // namespace perfbench
