// Scenario factory: thousands of randomized campaign cells (DESIGN.md §13).
//
// A campaign cell is a fully specified experiment: a synthetic message
// set (UUniFast utilization split across messages, SAE-style dynamic
// mix), a cluster sized 2..64 nodes, a channel fault model drawn from
// the i.i.d. / Gilbert–Elliott / common-mode space, and a structural
// fault drawn from {none, crash, blackout, babble, drift}, crossed
// with one another. Every cell is derived *statelessly* from
// (campaign_seed, cell index): shard workers can materialize any cell
// in any order, and a resumed campaign regenerates byte-identical
// scenarios from the manifest alone.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "fault/fault_model.hpp"
#include "sim/random.hpp"

namespace coeff::campaign {

/// Structural-fault axis of the scenario cross product.
enum class StructuralKind : std::uint8_t {
  kNone,
  kCrash,
  kBlackout,
  kBabble,
  kDrift,
};

[[nodiscard]] const char* to_string(StructuralKind k);

/// The knobs a campaign draws scenarios from. Serialized verbatim into
/// the manifest so `resume` regenerates the identical population.
struct ScenarioDistribution {
  int min_nodes = 2;
  int max_nodes = 64;
  int min_statics = 8;
  int max_statics = 60;
  int max_dynamics = 24;
  /// Target static-segment utilization for the UUniFast draw.
  double min_util = 0.15;
  double max_util = 0.70;
  /// log10 of the wire BER range (i.i.d. base / common-mode base).
  double min_log10_ber = -8.0;
  double max_log10_ber = -5.0;
  /// Schemes crossed into the population (round-robin by cell draw).
  std::vector<core::SchemeKind> schemes = {core::SchemeKind::kCoEfficient};
  /// Simulated batch window per cell.
  std::int64_t window_ms = 1000;
  /// Mixed-criticality axis (DESIGN.md §16): when set, every cell runs
  /// the mode-change protocol + power model with a per-cell drawn
  /// policy preset and criticality assignment. Drawn from its own salt
  /// stream, so enabling it never perturbs the other cell draws.
  bool criticality = false;

  /// Throws std::invalid_argument naming the first violated constraint.
  void validate() const;

  bool operator==(const ScenarioDistribution&) const = default;
};

/// One fully drawn cell. Everything run_cell needs, plus the repro
/// seed the quarantine report records.
struct ScenarioSpec {
  std::int64_t cell = 0;
  std::uint64_t seed = 0;  ///< derived per-cell seed (the repro handle)
  core::SchemeKind scheme = core::SchemeKind::kCoEfficient;
  int nodes = 2;
  int num_statics = 8;
  int num_dynamics = 0;
  std::int64_t minislots = 50;
  double utilization = 0.0;  ///< UUniFast target actually drawn
  fault::FaultModelConfig fault_model;
  StructuralKind structural = StructuralKind::kNone;
  std::int64_t window_ms = 1000;
};

/// UUniFast (Bini & Buttazzo): split `total` utilization over `n`
/// tasks, uniformly over the simplex. Deterministic per rng state.
[[nodiscard]] std::vector<double> uunifast(int n, double total,
                                           sim::Rng& rng);

class ScenarioGenerator {
 public:
  ScenarioGenerator(std::uint64_t campaign_seed, ScenarioDistribution dist);

  /// The spec of cell `cell` — stateless and order-independent.
  [[nodiscard]] ScenarioSpec spec(std::int64_t cell) const;

  /// Materialize the full experiment config (message sets, cluster,
  /// fault models, structural windows) for a spec.
  [[nodiscard]] core::ExperimentConfig config(const ScenarioSpec& spec) const;

  [[nodiscard]] const ScenarioDistribution& distribution() const {
    return dist_;
  }
  [[nodiscard]] std::uint64_t campaign_seed() const { return campaign_seed_; }

 private:
  std::uint64_t campaign_seed_ = 0;
  ScenarioDistribution dist_;
};

/// Short human/report tag for a spec's fault axes, e.g.
/// "gilbert-elliott+crash".
[[nodiscard]] std::string fault_tag(const ScenarioSpec& spec);

/// CLI/manifest spellings of a scheme ("coefficient", "fspec", "hosa").
[[nodiscard]] const char* scheme_tag(core::SchemeKind scheme);
[[nodiscard]] std::optional<core::SchemeKind> parse_scheme_tag(
    std::string_view name);
/// A comma-separated scheme mix ("coefficient,hosa"), as the manifest and
/// `campaign run --schemes` spell it; nullopt on an empty or unknown tag.
[[nodiscard]] std::string scheme_list(
    const std::vector<core::SchemeKind>& schemes);
[[nodiscard]] std::optional<std::vector<core::SchemeKind>> parse_scheme_list(
    std::string_view text);

}  // namespace coeff::campaign
