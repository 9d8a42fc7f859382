// Scenario factory tests: stateless determinism, distribution bounds,
// UUniFast correctness, and validity of every materialized experiment.
#include "campaign/scenario.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "sim/random.hpp"

namespace coeff::campaign {
namespace {

ScenarioDistribution small_dist() {
  ScenarioDistribution dist;
  dist.max_nodes = 16;
  dist.schemes = {core::SchemeKind::kCoEfficient, core::SchemeKind::kFspec,
                  core::SchemeKind::kHosa};
  dist.window_ms = 50;
  return dist;
}

TEST(UUniFast, SumsToTotalAndStaysNonNegative) {
  sim::Rng rng(7);
  for (const int n : {1, 2, 8, 40}) {
    const auto shares = uunifast(n, 0.6, rng);
    ASSERT_EQ(shares.size(), static_cast<std::size_t>(n));
    double sum = 0.0;
    for (const double u : shares) {
      EXPECT_GE(u, 0.0);
      EXPECT_LE(u, 0.6 + 1e-9);
      sum += u;
    }
    EXPECT_NEAR(sum, 0.6, 1e-9);
  }
}

TEST(ScenarioGenerator, SpecsAreStatelessAndOrderIndependent) {
  const ScenarioGenerator a(42, small_dist());
  const ScenarioGenerator b(42, small_dist());
  // Draw in opposite orders; every cell must come out identical.
  for (std::int64_t cell = 0; cell < 64; ++cell) {
    const ScenarioSpec left = a.spec(cell);
    const ScenarioSpec right = b.spec(63 - (63 - cell));
    EXPECT_EQ(left.seed, right.seed);
    EXPECT_EQ(left.scheme, right.scheme);
    EXPECT_EQ(left.nodes, right.nodes);
    EXPECT_EQ(left.num_statics, right.num_statics);
    EXPECT_EQ(left.fault_model.kind, right.fault_model.kind);
    EXPECT_EQ(left.structural, right.structural);
  }
}

TEST(ScenarioGenerator, DifferentSeedsDiverge) {
  const ScenarioGenerator a(1, small_dist());
  const ScenarioGenerator b(2, small_dist());
  int different = 0;
  for (std::int64_t cell = 0; cell < 32; ++cell) {
    if (a.spec(cell).seed != b.spec(cell).seed) ++different;
  }
  EXPECT_EQ(different, 32);
}

TEST(ScenarioGenerator, DrawsStayInsideTheDistribution) {
  const ScenarioDistribution dist = small_dist();
  const ScenarioGenerator gen(7, dist);
  std::set<StructuralKind> structurals;
  std::set<fault::FaultModelKind> faults;
  std::set<core::SchemeKind> schemes;
  for (std::int64_t cell = 0; cell < 400; ++cell) {
    const ScenarioSpec spec = gen.spec(cell);
    EXPECT_GE(spec.nodes, dist.min_nodes);
    EXPECT_LE(spec.nodes, dist.max_nodes);
    EXPECT_GE(spec.num_statics, dist.min_statics);
    EXPECT_LE(spec.num_statics, dist.max_statics);
    EXPECT_LE(spec.num_dynamics, dist.max_dynamics);
    EXPECT_GE(spec.utilization, dist.min_util);
    EXPECT_LE(spec.utilization, dist.max_util);
    EXPECT_GE(std::log10(spec.fault_model.ber), dist.min_log10_ber - 1e-9);
    EXPECT_LE(std::log10(spec.fault_model.ber), dist.max_log10_ber + 1e-9);
    EXPECT_EQ(spec.window_ms, dist.window_ms);
    structurals.insert(spec.structural);
    faults.insert(spec.fault_model.kind);
    schemes.insert(spec.scheme);
  }
  // The full cross shows up in a 400-cell population.
  EXPECT_EQ(structurals.size(), 5u);
  EXPECT_EQ(faults.size(), 3u);
  EXPECT_EQ(schemes.size(), 3u);
}

/// Every materialized config must pass the same validation the
/// experiment entry point enforces — a generator that can emit an
/// invalid cell would poison campaigns with spurious quarantines.
TEST(ScenarioGenerator, MaterializedConfigsAreValid) {
  const ScenarioGenerator gen(11, small_dist());
  for (std::int64_t cell = 0; cell < 60; ++cell) {
    const ScenarioSpec spec = gen.spec(cell);
    const core::ExperimentConfig config = gen.config(spec);
    EXPECT_NO_THROW(config.cluster.validate()) << "cell " << cell;
    EXPECT_NO_THROW(config.statics.validate()) << "cell " << cell;
    EXPECT_NO_THROW(config.dynamics.validate()) << "cell " << cell;
    EXPECT_NO_THROW(config.structural.validate(config.cluster.num_nodes))
        << "cell " << cell;
    EXPECT_EQ(config.seed, spec.seed);
    EXPECT_EQ(static_cast<int>(config.cluster.num_nodes), spec.nodes);
  }
}

TEST(ScenarioGenerator, CriticalityAxisNeverPerturbsTheOtherDraws) {
  // The criticality axis draws from its own salted stream: enabling it
  // must leave every spec() field byte-identical (existing campaigns
  // keep their cell assignments) and only decorate the materialized
  // config with a mode policy, criticality levels and the power model.
  auto dist = small_dist();
  const ScenarioGenerator plain(42, dist);
  dist.criticality = true;
  const ScenarioGenerator crit(42, dist);
  for (std::int64_t cell = 0; cell < 32; ++cell) {
    const ScenarioSpec a = plain.spec(cell);
    const ScenarioSpec b = crit.spec(cell);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.num_statics, b.num_statics);
    EXPECT_EQ(a.fault_model.kind, b.fault_model.kind);
    EXPECT_EQ(a.structural, b.structural);

    const core::ExperimentConfig off = plain.config(a);
    const core::ExperimentConfig on = crit.config(b);
    EXPECT_FALSE(off.mode_policy.enabled);
    EXPECT_FALSE(off.power);
    EXPECT_TRUE(on.mode_policy.enabled) << "cell " << cell;
    EXPECT_TRUE(on.power);
    EXPECT_EQ(off.statics.messages().size(), on.statics.messages().size());
    // Deterministic per seed: re-materializing draws the same policy.
    const core::ExperimentConfig again = crit.config(b);
    EXPECT_EQ(on.mode_policy.min_dwell_cycles,
              again.mode_policy.min_dwell_cycles);
    EXPECT_DOUBLE_EQ(on.mode_policy.enter_l1_factor,
                     again.mode_policy.enter_l1_factor);
  }
}

TEST(ScenarioTags, RoundTrip) {
  for (const auto scheme :
       {core::SchemeKind::kCoEfficient, core::SchemeKind::kFspec,
        core::SchemeKind::kHosa}) {
    EXPECT_EQ(parse_scheme_tag(scheme_tag(scheme)), scheme);
  }
  EXPECT_FALSE(parse_scheme_tag("nope").has_value());
}

}  // namespace
}  // namespace coeff::campaign
