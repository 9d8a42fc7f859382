// Experiment harness: builds a cluster + scheduler + fault injector from
// a declarative config, runs the batch, and returns the metrics the
// paper's figures are drawn from.
#pragma once

#include <cstdint>
#include <memory>

#include "core/coefficient.hpp"
#include "core/fspec.hpp"
#include "core/metrics.hpp"
#include "fault/fault_model.hpp"
#include "fault/iec61508.hpp"
#include "fault/structural.hpp"
#include "flexray/config.hpp"
#include "flexray/power.hpp"
#include "net/workloads.hpp"
#include "sched/criticality.hpp"
#include "sim/trace.hpp"

namespace coeff::core {

enum class SchemeKind : std::uint8_t { kCoEfficient, kFspec, kHosa };

[[nodiscard]] constexpr const char* to_string(SchemeKind s) {
  switch (s) {
    case SchemeKind::kCoEfficient:
      return "CoEfficient";
    case SchemeKind::kFspec:
      return "FSPEC";
    case SchemeKind::kHosa:
      return "HOSA";
  }
  return "?";
}

struct ExperimentConfig {
  flexray::ClusterConfig cluster;
  net::MessageSet statics;
  net::MessageSet dynamics;

  double ber = 1e-7;
  /// Reliability goal over `u`; if 0, derived from `sil`.
  double rho = 0.0;
  fault::Sil sil = fault::Sil::kSil3;
  sim::Time u = sim::seconds(3600);
  int max_copies = 8;

  /// Instances are released during [0, batch_window).
  sim::Time batch_window = sim::seconds(1);
  /// Running-time mode: dynamic entries never expire and the run
  /// continues past the window until every owed copy has been sent.
  bool drain_batch = false;

  /// CoEfficient ablation switches (see CoEfficientOptions).
  bool ablation_uniform_plan = false;
  bool ablation_no_slack = false;
  bool ablation_single_channel = false;

  net::ArrivalOptions arrivals;
  std::uint64_t seed = 42;
  /// Safety cap on post-window drain, in multiples of the window.
  int max_drain_factor = 64;

  // --- Fault-resilience layer ------------------------------------------
  /// Channel physics. `fault_model.ber` is overwritten with `ber` above
  /// (the planner and the i.i.d./common-mode wire share one knob); the
  /// Gilbert–Elliott model keeps its own per-state BERs.
  fault::FaultModelConfig fault_model;
  /// Environment drift: step the model to `ber_step` at `ber_step_at`
  /// (disabled while ber_step < 0 or ber_step_at <= 0).
  sim::Time ber_step_at;
  double ber_step = -1.0;
  /// Optional second step (same disable convention): a burst profile
  /// steps up at ber_step_at and back down at ber_step2_at.
  sim::Time ber_step2_at;
  double ber_step2 = -1.0;
  /// Runtime reliability monitoring + online re-planning (CoEfficient).
  bool enable_monitor = false;
  fault::ReliabilityMonitorOptions monitor;
  /// Throw instead of degrading when rho is unreachable.
  bool throw_on_infeasible = false;

  // --- Structural fault domain (node/channel failures) -----------------
  /// ECU crash/restart windows, channel blackouts, babbling-idiot slots
  /// and drift excursions — scheduled or stochastic (seeded off `seed`).
  /// Empty = structural injection disabled.
  fault::StructuralFaultConfig structural;
  /// CoEfficient recovery knobs (see CoEfficientOptions).
  int vote_replicas = 0;
  bool silent_node_detection = false;
  int silent_cycle_threshold = 2;

  // --- Mixed-criticality modes + energy (DESIGN.md §16) ----------------
  /// Mode-change protocol (CoEfficient only). Criticality levels are
  /// carried on the message sets themselves (sched::with_criticality).
  sched::ModePolicy mode_policy;
  /// Per-node DVFS/DPM power model (CoEfficient only).
  flexray::PowerConfig power;
  /// Optional structured-trace sink (single runs only: sweep cells
  /// sharing one Trace would interleave nondeterministically).
  sim::Trace* trace = nullptr;
};

struct ExperimentResult {
  RunStats run;
  SchemeKind scheme = SchemeKind::kCoEfficient;
  double rho_target = 0.0;
  /// Theoretical reliability of what the scheme actually scheduled
  /// (CoEfficient: the differentiated plan; FSPEC: placed clone rounds,
  /// accounting for clones that did not fit).
  double reliability_scheduled = 0.0;
  int fspec_rounds = 0;          ///< FSPEC only
  /// Bandwidth the retransmission plan adds (CoEfficient only).
  double plan_added_load_bits_per_second = 0.0;
  /// The plan active when the run ended (CoEfficient only) — differs
  /// from the initial plan when the monitor re-planned online.
  fault::RetransmissionPlan final_plan;
  std::int64_t cycles_run = 0;
  /// The Cluster has one cycle walk, so this always equals cycles_run.
  /// It is kept because perfbench reads it (perfbench/loaded_run.cpp
  /// checks it, perfbench/layers.cpp reports flexray.compiled_share from
  /// it): drop it at the next change to perfbench/.
  std::int64_t compiled_cycles = 0;
  /// Wall-clock seconds spent in the cycle walk (window + drain), i.e.
  /// excluding scheduler construction, plan solving and finalization.
  /// cycles_run / walk_seconds is the walk-throughput figure
  /// bench/micro_cycle reports.
  double walk_seconds = 0.0;
  bool drained = true;           ///< false if the drain cap was hit
};

/// Build the scheduler, fault model, arrivals and flexray::Cluster that
/// `config` describes, run the batch and return its metrics. The body is
/// core/run_experiment_with.hpp.
[[nodiscard]] ExperimentResult run_experiment(const ExperimentConfig& config,
                                              SchemeKind scheme);

/// Paper §IV-A default cluster for the running-time / static experiments
/// (5 ms cycle, 80 or 120 static slots, remaining bandwidth dynamic).
/// The bus bit rate is raised to 50 Mb/s so one 40-macrotick static slot
/// carries the largest Table-II message (the paper's parameter set is
/// inconsistent on this point; see DESIGN.md).
[[nodiscard]] flexray::ClusterConfig paper_cluster_static_suite(
    std::int64_t static_slots);

/// Paper §IV-A cluster for the dynamic-segment experiments: 80 static
/// slots and the given number of minislots (25..100).
[[nodiscard]] flexray::ClusterConfig paper_cluster_dynamic_suite(
    std::int64_t minislots);

/// Paper §IV-A cluster for the BBW/ACC application suites: 1 ms cycle,
/// 0.75 ms static segment (the sets' fastest period is 1 ms).
[[nodiscard]] flexray::ClusterConfig paper_cluster_apps(
    std::int64_t minislots = 25);

}  // namespace coeff::core
