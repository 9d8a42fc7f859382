// loaded-run: the paper's loaded synthetic configuration over a 10 s
// simulated window, one core::run_experiment each for CoEfficient, FSPEC
// and HOSA in turn per operation, one caller (closed loop).
// Walk- and accounting-bound: it exercises net, fault, sched, core and
// flexray but never analysis or campaign.
#include "layers.hpp"

namespace perfbench {
namespace {

/// Run-seed variants per run: each (variant, scheme) pair repeats, so
/// every run checks repeatability.
constexpr int kVariants = 4;

struct Op {
  int variant = 0;
  core::SchemeKind scheme = core::SchemeKind::kCoEfficient;
};

Op op_at(std::int64_t k) {
  return {static_cast<int>((k / 3) % kVariants),
          kSchemes[static_cast<std::size_t>(k % 3)]};
}

std::int64_t window_ms(const Options& options) {
  return options.tiny ? 200 : 10'000;
}

/// The stored-digest check: the paper's configuration (seeds 42/7/42,
/// the one bench/micro_cycle times) under each scheme.
void check_reference(const Options& options, WorkloadResult& out) {
  for (const core::SchemeKind scheme : kSchemes) {
    const std::string name =
        std::string("loaded-run.") + scheme_key(scheme) +
        (options.tiny ? ".tiny" : "");
    ++out.attempted;
    try {
      const core::ExperimentResult result = core::run_experiment(
          loaded_config(42, 7, 42, window_ms(options)), scheme);
      check_reference_digest(
          options, name, run_digest(result),
          options.inject_wrong_digest && scheme == core::SchemeKind::kCoEfficient,
          out);
    } catch (const std::exception& e) {
      out.fail("reference " + name + " threw: " + e.what());
    }
  }
}

}  // namespace

WorkloadResult run_loaded(const Options& options) {
  WorkloadResult out;
  check_reference(options, out);
  if (options.record_digests) return out;

  // The message sets are the paper's; the seed draws each variant's run
  // seed, which drives the bursty arrivals and the channel's error draws.
  std::vector<core::ExperimentConfig> variants;
  for (int v = 0; v < kVariants; ++v) {
    const Span span("net.generate");
    variants.push_back(loaded_config(
        42, 7, mix64(options.seed * 1000 + static_cast<std::uint64_t>(v)),
        window_ms(options)));
  }

  std::map<std::pair<int, core::SchemeKind>, std::string> first_digest;
  // An operation is one round: CoEfficient, FSPEC and HOSA in turn on
  // one variant. Their run times differ by up to 2x, so a median over
  // single runs would sit between two schemes' modes and jump.
  std::vector<double> round_s;
  std::vector<double> round_setup_s;
  double round_wall = 0.0;
  double round_setup = 0.0;
  std::map<core::SchemeKind, std::vector<double>> run_s;
  double run_total_s = 0.0;
  double cycles = 0.0;
  WalkTally walk;
  std::map<std::string, double> counts;
  double untraced_s = 0.0;
  double traced_s = 0.0;

  // One run of one scheme. The traced pass pairs each traced run with an
  // untraced run of the same inputs, so the tracing overhead is measured
  // on identical work.
  auto run_op = [&](std::int64_t k, bool traced) {
    const Op op = op_at(k);
    core::ExperimentConfig config = variants[static_cast<std::size_t>(op.variant)];
    if (options.inject_throw && k == 1) {
      config.batch_window = sim::Time::zero();  // the library rejects it
    }
    ++out.attempted;
    try {
      const std::int64_t start = now_ns();
      core::ExperimentResult result;
      if (traced) {
        tracer().set_op(static_cast<int>(k));
        const Span span("loaded.op");
        probe_setup_layers(config, op.scheme, counts);
        const std::int64_t run_start = now_ns();
        result = traced_run(config, op.scheme);
        walk.add(result, seconds_since(run_start));
      } else {
        result = core::run_experiment(config, op.scheme);
      }
      const double wall = seconds_since(start);
      (traced ? traced_s : untraced_s) += wall;
      if (!traced) {
        run_s[op.scheme].push_back(wall);
        run_total_s += wall;
        round_wall += wall;
        round_setup += wall - result.walk_seconds;
        cycles += static_cast<double>(result.cycles_run);
      }
      const std::string law = check_run(result);
      if (!law.empty()) {
        out.fail("op " + std::to_string(k) + ": " + law);
        return;
      }
      if (result.compiled_cycles != result.cycles_run) {
        out.fail("op " + std::to_string(k) + ": compiled walk fell back (" +
                 std::to_string(result.compiled_cycles) + "/" +
                 std::to_string(result.cycles_run) + " cycles compiled)");
        return;
      }
      const std::string digest = run_digest(result);
      const auto [it, fresh] =
          first_digest.emplace(std::make_pair(op.variant, op.scheme), digest);
      if (!fresh && it->second != digest) {
        out.fail("op " + std::to_string(k) + ": RunStats differ from an earlier "
                 "run of the same inputs");
      }
    } catch (const std::exception& e) {
      out.fail("op " + std::to_string(k) + " threw: " + e.what());
    }
  };

  const std::int64_t loop_start = now_ns();
  std::int64_t k = 0;
  // Whole rounds of the three schemes, so every scheme weighs the same.
  while (k < 3 || k % 3 != 0 || seconds_since(loop_start) < options.seconds) {
    // The traced pass alternates which of the pair runs first.
    const bool untraced_first = options.trace && k % 2 == 0;
    if (untraced_first) run_op(k, /*traced=*/false);
    run_op(k, options.trace);
    if (options.trace && !untraced_first) run_op(k, /*traced=*/false);
    if (k % 3 == 2) {
      round_s.push_back(round_wall);
      round_setup_s.push_back(round_setup);
      round_wall = 0.0;
      round_setup = 0.0;
    }
    ++k;
  }

  if (!options.trace) {
    const double p90 = quantile(round_s, 0.9);
    std::size_t beyond = 0;
    for (const double x : round_s) beyond += x > p90 ? 1 : 0;
    const double cycles_per_s = run_total_s > 0.0 ? cycles / run_total_s : 0.0;
    out.metrics = {
        {"setup_s", median(round_setup_s), "s"},
        {"op_ms_p50", median(round_s) * 1e3, "ms"},
        {"work_per_s", cycles_per_s, "1/s"},
        {"peak_rss_mb", peak_rss_self_mb(), "MB"},
    };
    out.extras = {
        {"sim_cycles_per_s", cycles_per_s, "cycles/s"},
        {"op_ms_p90", p90 * 1e3, "ms"},
        {"ops_timed", static_cast<double>(round_s.size()), "count"},
        {"ops_beyond_p90", static_cast<double>(beyond), "count"},
    };
    for (const auto& [scheme, samples] : run_s) {
      out.extras.push_back({std::string("run_ms_p50.") + scheme_key(scheme),
                            median(samples) * 1e3, "ms"});
    }
    if (beyond < 10) {
      out.notes.push_back("op_ms_p90 has fewer than 10 samples beyond it");
    }
    return out;
  }

  std::map<std::string, double> values;
  walk.emit(values);
  emit_setup_probes(tracer(), values);
  const double ops = static_cast<double>(k);
  values["fault.plan_copies"] = counts["fault.plan_copies"] / (ops / 3.0);
  values["net.arrivals"] = counts["net.arrivals"] / ops;
  values["net.generate_s"] = median(tracer().durations("net.generate"));
  values["trace.overhead"] = untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0;
  values["trace.unattributed_share"] = tracer().unattributed_share(
      "loaded.op", traced_s + sum(tracer().durations("net.generate")));
  emit_per_layer(out, values);
  return out;
}

}  // namespace perfbench
