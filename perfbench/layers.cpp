#include "layers.hpp"

#include <cstdio>
#include <memory>
#include <unordered_map>

#include "core/coefficient.hpp"
#include "core/cycle_template.hpp"
#include "core/fspec.hpp"
#include "core/hosa.hpp"
#include "fault/iec61508.hpp"
#include "fault/reliability.hpp"
#include "net/workloads.hpp"
#include "sched/schedule_table.hpp"
#include "sim/random.hpp"

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

const char* scheme_key(core::SchemeKind scheme) {
  switch (scheme) {
    case core::SchemeKind::kCoEfficient:
      return "coefficient";
    case core::SchemeKind::kFspec:
      return "fspec";
    case core::SchemeKind::kHosa:
      return "hosa";
  }
  return "?";
}

core::ExperimentConfig loaded_config(std::uint64_t statics_seed,
                                     std::uint64_t dynamics_seed,
                                     std::uint64_t run_seed,
                                     std::int64_t window_ms) {
  core::ExperimentConfig config;
  config.cluster = core::paper_cluster_dynamic_suite(50);
  sim::Rng statics_rng(statics_seed);
  net::SyntheticStaticOptions statics;
  statics.count = 100;
  config.statics = net::synthetic_static(statics, statics_rng);
  sim::Rng dynamics_rng(dynamics_seed);
  net::SaeAperiodicOptions dynamics;
  dynamics.static_slots = 80;
  dynamics.min_bits = 256;
  dynamics.max_bits = 2000;
  config.dynamics = net::sae_aperiodic(dynamics, dynamics_rng);
  config.arrivals.process = net::ArrivalProcess::kBursty;
  config.arrivals.burst = 3;
  config.sil = fault::Sil::kSil3;
  config.ber = 1e-7;
  config.batch_window = sim::millis(window_ms);
  config.seed = run_seed;
  return config;
}

namespace {

void append_segment(std::string& out, const core::SegmentMetrics& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%lld %lld %lld %lld %lld %lld %lld %zu %zu %.9g %.9g|",
                static_cast<long long>(s.released),
                static_cast<long long>(s.delivered),
                static_cast<long long>(s.missed),
                static_cast<long long>(s.source_lost),
                static_cast<long long>(s.copies_sent),
                static_cast<long long>(s.copies_corrupted),
                static_cast<long long>(s.useful_payload_bits),
                s.latency.count(), s.completion.count(), s.latency.mean_ms(),
                s.completion.mean_ms());
  out += buf;
}

}  // namespace

std::string run_digest(const core::ExperimentResult& result) {
  const core::RunStats& r = result.run;
  std::string text;
  append_segment(text, r.statics);
  append_segment(text, r.dynamics);
  const long long fields[] = {
      r.running_time.ns(),         r.static_wire_capacity.ns(),
      r.dynamic_wire_capacity.ns(), r.static_wire_busy.ns(),
      r.dynamic_wire_busy.ns(),    r.useful_bits_static_wire,
      r.useful_bits_dynamic_wire,  r.retransmission_copies_planned,
      r.retransmission_copies_sent, r.retransmission_copies_dropped,
      r.slack_slots_stolen,        r.dynamic_in_static_slots,
      r.admission_rejections,      r.plan_swaps,
      r.dynamic_frames_shed,       r.frames_lost,
      r.failovers,                 r.node_crashes,
      result.cycles_run,           result.fspec_rounds};
  for (const long long f : fields) text += std::to_string(f) + " ";
  return digest_hex(text);
}

std::string check_run(const core::ExperimentResult& result) {
  const core::RunStats& r = result.run;
  if (r.statics.delivered + r.statics.missed > r.statics.released) {
    return "static delivered + missed exceeds released";
  }
  if (r.dynamics.delivered + r.dynamics.missed > r.dynamics.released) {
    return "dynamic delivered + missed exceeds released";
  }
  if (r.static_wire_busy > r.static_wire_capacity) {
    return "static wire busy exceeds capacity";
  }
  if (r.dynamic_wire_busy > r.dynamic_wire_capacity) {
    return "dynamic wire busy exceeds capacity";
  }
  if (result.cycles_run <= 0) return "no cycles simulated";
  return "";
}

void probe_setup_layers(const core::ExperimentConfig& config,
                        core::SchemeKind scheme,
                        std::map<std::string, double>& counts) {
  {
    const Span span("net.arrivals");
    sim::Rng rng(config.seed ^ 0x9E3779B97F4A7C15ULL);
    std::size_t n = 0;
    for (const auto& m : config.dynamics.messages()) {
      n += net::arrivals(m, config.batch_window, config.arrivals, rng).size();
    }
    counts["net.arrivals"] += static_cast<double>(n);
  }
  const double rho = fault::reliability_goal(config.sil, config.u);
  fault::SolverOptions solver;
  solver.ber = config.ber;
  solver.rho = rho;
  solver.u = config.u;
  solver.max_copies_per_message = config.max_copies;
  fault::RetransmissionPlan plan;
  int rounds = 1;
  if (scheme == core::SchemeKind::kCoEfficient) {
    const Span span("fault.plan_solve");
    plan = fault::solve_differentiated(config.statics, solver);
    counts["fault.plan_copies"] += plan.total_copies();
  } else if (scheme == core::SchemeKind::kFspec) {
    const Span span("fault.plan_solve");
    rounds = fault::solve_uniform_rounds(config.statics, solver, 2);
  }
  std::optional<sched::StaticScheduleTable> table;
  {
    const Span span("sched.table_build");
    table = sched::StaticScheduleTable::build(config.statics, config.cluster);
  }
  {
    std::unordered_map<int, int> budget;
    for (std::size_t z = 0; z < plan.copies.size(); ++z) {
      budget[config.statics[z].id] = plan.copies[z];
    }
    const Span span("core.template_build");
    core::CycleTemplate tpl;
    tpl.rebuild(*table, config.statics, &budget,
                config.cluster.g_number_of_static_slots);
  }
  const std::string name = std::string("core.scheduler_ctor.") + scheme_key(scheme);
  const Span span(name.c_str());
  if (scheme == core::SchemeKind::kCoEfficient) {
    core::CoEfficientOptions opt;
    opt.ber = config.ber;
    opt.rho = rho;
    opt.u = config.u;
    opt.max_copies_per_message = config.max_copies;
    const core::CoEfficientScheduler sched(config.cluster, config.statics,
                                           config.dynamics,
                                           config.batch_window, opt);
  } else if (scheme == core::SchemeKind::kFspec) {
    core::FspecOptions opt;
    opt.rounds = rounds;
    const core::FspecScheduler sched(config.cluster, config.statics,
                                     config.dynamics, config.batch_window,
                                     opt);
  } else {
    const core::HosaScheduler sched(config.cluster, config.statics,
                                    config.dynamics, config.batch_window);
  }
}

core::ExperimentResult traced_run(const core::ExperimentConfig& config,
                                  core::SchemeKind scheme) {
  const Span span("core.run_experiment");
  core::ExperimentResult result = core::run_experiment(config, scheme);
  const std::int64_t end = now_ns();
  const auto walk_ns = static_cast<std::int64_t>(result.walk_seconds * 1e9);
  tracer().add("flexray.walk", end - walk_ns, end);
  return result;
}

void WalkTally::add(const core::ExperimentResult& result, double run_wall_s) {
  if (result.cycles_run > 0) {
    ns_per_cycle[result.scheme].push_back(
        result.walk_seconds * 1e9 / static_cast<double>(result.cycles_run));
  }
  walk_s += result.walk_seconds;
  run_s += run_wall_s;
  frames += static_cast<double>(result.run.statics.copies_sent +
                                result.run.dynamics.copies_sent);
  cycles += static_cast<double>(result.cycles_run);
  compiled += static_cast<double>(result.compiled_cycles);
}

void WalkTally::emit(std::map<std::string, double>& values) const {
  for (const auto& [scheme, samples] : ns_per_cycle) {
    values[std::string("flexray.walk_ns_per_cycle.") + scheme_key(scheme)] =
        median(samples);
  }
  if (frames > 0.0) values["flexray.walk_ns_per_frame"] = walk_s * 1e9 / frames;
  values["flexray.cycles_run"] = cycles;
  if (cycles > 0.0) values["flexray.compiled_share"] = compiled / cycles;
  values["flexray.interpreted_cycles"] = cycles - compiled;
  if (run_s > 0.0) values["core.setup_share"] = (run_s - walk_s) / run_s;
}

void emit_setup_probes(const Tracer& t, std::map<std::string, double>& values) {
  for (const core::SchemeKind scheme : kSchemes) {
    const std::string key = scheme_key(scheme);
    values["core.scheduler_ctor_s." + key] =
        median(t.durations("core.scheduler_ctor." + key));
  }
  values["core.template_build_s"] = median(t.durations("core.template_build"));
  values["fault.plan_solve_s"] = median(t.durations("fault.plan_solve"));
  values["sched.table_build_s"] = median(t.durations("sched.table_build"));
}

}  // namespace perfbench
