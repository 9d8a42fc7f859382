// Helpers for the differential tests: run one experiment through the
// production walk (core::run_experiment) or through the slot-by-slot
// reference walk, and render its trace so two runs compare as strings.
#pragma once

#include <cstdint>
#include <string>

#include "core/experiment.hpp"
#include "core/run_experiment_with.hpp"
#include "sim/trace.hpp"
#include "support/reference_cluster.hpp"

namespace coeff::core {

/// Render a trace as CSV. Differential assertions compare these strings
/// wholesale, so any drift in record order, timestamps, tags or notes
/// between the two walks fails loudly with a real diff.
inline std::string trace_csv(const sim::Trace& trace) {
  std::string out = "at_ns,kind,a,b,c,d,note\n";
  for (const auto& r : trace.records()) {
    out += std::to_string(r.at.ns());
    out += ',';
    out += sim::to_string(r.kind);
    out += ',';
    out += std::to_string(r.a);
    out += ',';
    out += std::to_string(r.b);
    out += ',';
    out += std::to_string(r.c);
    out += ',';
    out += std::to_string(r.d);
    out += ',';
    out += r.note;
    out += '\n';
  }
  return out;
}

/// One traced run. `trace` keeps the records for scenario assertions;
/// `static_slot_calls` counts the reference walk's per-slot policy calls
/// (0 for a production run), so a comparison can prove it is not
/// vacuous.
struct WalkRun {
  ExperimentResult result;
  sim::Trace trace;
  std::string csv;
  std::int64_t static_slot_calls = 0;
};

/// `config` through core::run_experiment, the production walk.
inline WalkRun run_production(ExperimentConfig config, SchemeKind scheme) {
  WalkRun run;
  config.trace = &run.trace;
  run.result = run_experiment(config, scheme);
  run.csv = trace_csv(run.trace);
  return run;
}

/// `config` through the slot-by-slot reference walk.
inline WalkRun run_reference(ExperimentConfig config, SchemeKind scheme) {
  WalkRun run;
  config.trace = &run.trace;
  const std::int64_t before = flexray::ReferenceCluster::static_slot_calls();
  run.result = run_experiment_with<flexray::ReferenceCluster>(config, scheme);
  run.static_slot_calls =
      flexray::ReferenceCluster::static_slot_calls() - before;
  run.csv = trace_csv(run.trace);
  return run;
}

}  // namespace coeff::core
