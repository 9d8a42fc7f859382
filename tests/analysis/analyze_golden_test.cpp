// Golden digests of what `coeffctl analyze --prob` prints (DESIGN.md §14,
// §15). For the four shipped workloads under each scheme, with the CLI's
// default SAE dynamic mix, these tests compare the FNV-1a digests of the
// static renders (render_prob_text + render_prob_json), the dynamic
// renders, the end-to-end class renders and the text of the two lint
// reports against values recorded from a known-good build. ColdSets pins
// the same renders, plus the bits of both interference distributions, on
// fresh synthetic sets of every size a cold analysis sees. A digest that
// moves means the verifiers' output moved; re-record only with a
// line-by-line argument for why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "analysis/dyn_wcrt.hpp"
#include "analysis/pmf.hpp"
#include "analysis/prob_wcrt.hpp"
#include "campaign/cross_check.hpp"
#include "core/experiment.hpp"
#include "net/workloads.hpp"
#include "sim/random.hpp"

namespace coeff::analysis {
namespace {

/// 64-bit FNV-1a of `text`, as 16 hex digits.
std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

enum class Workload { kAcc, kBbw, kApps, kSynthetic };

/// The configuration `coeffctl analyze --prob --workload W` builds with
/// every other flag at its default.
core::ExperimentConfig workload_config(Workload w) {
  core::ExperimentConfig config;
  if (w == Workload::kSynthetic) {
    config.cluster = core::paper_cluster_dynamic_suite(50);
    sim::Rng rng(config.seed);
    net::SyntheticStaticOptions statics;
    statics.count = 100;
    config.statics = net::synthetic_static(statics, rng);
  } else {
    config.cluster = core::paper_cluster_apps(25);
    config.statics = w == Workload::kBbw   ? net::brake_by_wire()
                     : w == Workload::kAcc ? net::adaptive_cruise()
                                           : net::brake_by_wire().merged_with(
                                                 net::adaptive_cruise());
  }
  sim::Rng rng(config.seed ^ 0x5DEECE66DULL);
  net::SaeAperiodicOptions sae;
  sae.static_slots = static_cast<int>(config.cluster.g_number_of_static_slots);
  config.dynamics = net::sae_aperiodic(sae, rng);
  return config;
}

struct Golden {
  const char* prob;        ///< render_prob_text + render_prob_json
  const char* dyn;         ///< render_dyn_text + render_dyn_json
  const char* end_to_end;  ///< the merged classes, as text and JSON
  const char* lint;        ///< lint_prob + lint_dyn, as report text
};

/// Analyzes `config` under each scheme and compares the four digests with
/// `golden` (CoEfficient, FSPEC, HOSA).
void expect_golden(const core::ExperimentConfig& config,
                   const Golden (&golden)[3]) {
  const core::SchemeKind schemes[] = {core::SchemeKind::kCoEfficient,
                                      core::SchemeKind::kFspec,
                                      core::SchemeKind::kHosa};
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(core::to_string(schemes[i]));
    const auto setup =
        campaign::make_prob_setup(config, schemes[i], ProbWcrtOptions{});
    ASSERT_TRUE(setup->has_dynamics);
    const ProbWcrtResult prob = analyze_prob_wcrt(setup->input);
    const DynWcrtResult dyn = analyze_dyn_wcrt(setup->dyn_input);
    const std::vector<ClassProb> classes =
        merge_class_envelopes(prob.classes, dyn.classes);
    EXPECT_EQ(digest(render_prob_text(setup->input, prob) +
                     render_prob_json(setup->input, prob)),
              golden[i].prob);
    EXPECT_EQ(digest(render_dyn_text(setup->dyn_input, dyn) +
                     render_dyn_json(setup->dyn_input, dyn)),
              golden[i].dyn);
    EXPECT_EQ(digest(render_end_to_end_text(classes) +
                     render_class_json(classes)),
              golden[i].end_to_end);
    EXPECT_EQ(digest(lint_prob(setup->input, prob).render_text() +
                     lint_dyn(setup->dyn_input, dyn).render_text()),
              golden[i].lint);
  }
}

TEST(AnalyzeGoldenTest, Acc) {
  expect_golden(workload_config(Workload::kAcc),
                {{"c205c97c3cd0af50", "40be8c65efd8e6f7", "3bbe3ca6fcd65809",
                  "49167189a37adaec"},
                 {"53e331f691e91ca4", "bdfdc3c3289da4f7", "acf121fbcfd31377",
                  "efa75c7bf49b2c2c"},
                 {"bd5fa7ae7e42a847", "503dd70765562b83", "a753e6e0162d441f",
                  "bedf5ee75fc6a86f"}});
}

TEST(AnalyzeGoldenTest, Bbw) {
  expect_golden(workload_config(Workload::kBbw),
                {{"c6787c0c0ef405f0", "40be8c65efd8e6f7", "9db32b50f9ff1f83",
                  "3d0f15a62efa1c05"},
                 {"844354ec88a7963f", "bdfdc3c3289da4f7", "69635094055c6e39",
                  "46d122097491118c"},
                 {"d07f99e8cd871ec4", "503dd70765562b83", "2f91617528e8022b",
                  "d27330a2abfb5e15"}});
}

TEST(AnalyzeGoldenTest, Apps) {
  expect_golden(workload_config(Workload::kApps),
                {{"5fa8d07b31565e88", "40be8c65efd8e6f7", "1cbfcaefbaeb3673",
                  "6782a224b7cc45fd"},
                 {"33fc251f8990f999", "bdfdc3c3289da4f7", "854ca635a62259c4",
                  "46d122097491118c"},
                 {"a264ae91126045fe", "503dd70765562b83", "272f2dfeaefef055",
                  "d27330a2abfb5e15"}});
}

TEST(AnalyzeGoldenTest, Synthetic) {
  expect_golden(workload_config(Workload::kSynthetic),
                {{"df036e87308e32cd", "2ef5e9165541fc39", "f8650a01ca9b558f",
                  "8f2a4e7305a739ef"},
                 {"d7b5f4f53adaaaaa", "159e539114adfd04", "c5f29f6a422b20fc",
                  "1aed6bdb16b0de77"},
                 {"a77fc4a71eea85cb", "aa5f7bffb9cc1fce", "0e34df4e6d78ade0",
                  "c5c407a90827ac73"}});
}

// Burst-correlated loss drives the chained edge and the kz-contradiction
// rule's memoryless-versus-correlated branch, which the iid cells above
// leave quiet.
TEST(AnalyzeGoldenTest, BbwGilbertElliott) {
  core::ExperimentConfig config = workload_config(Workload::kBbw);
  config.fault_model.kind = fault::FaultModelKind::kGilbertElliott;
  expect_golden(config,
                {{"782d74e21b0c126d", "9714d551fa992c49", "0aa43791a587ea5a",
                  "c846cb16e1c919fc"},
                 {"e52dbe3a52b4fe43", "6ef50795c1a8312d", "204ff49a81041e75",
                  "33e9cac0f248fa1f"},
                 {"14354f2e8bead4d9", "4b57f5f31f3ccbcf", "b4414ba89ecb2c64",
                  "7f2ca1ea744168bc"}});
}

// At BER 1e-4 CoEfficient's plan degrades, so its dynamic releases are
// shed at the source (envelope [1, 1]) and the target rules stand down.
TEST(AnalyzeGoldenTest, AccDegradedPlan) {
  core::ExperimentConfig config = workload_config(Workload::kAcc);
  config.ber = 1e-4;
  expect_golden(config,
                {{"88ba6c5bca21ea83", "18b418b7b11f6e4f", "21e67dc87032195c",
                  "313d0c34a8c2e4d9"},
                 {"90e9fd311887cb99", "c85b539994c60549", "6f9d7bc8298f2ff3",
                  "91797113581cf1d9"},
                 {"8709f5b56e6f4673", "37bc7b7a692df57b", "c1e9606e5c7dbd45",
                  "062e83083b4218be"}});
}

/// A fresh synthetic set as a cold analysis sees one: `statics` random
/// statics, 30 SAE dynamics, the 50-minislot cluster, BER 1e-7, SIL 3.
core::ExperimentConfig cold_config(std::uint64_t seed, std::size_t statics) {
  core::ExperimentConfig config;
  config.cluster = core::paper_cluster_dynamic_suite(50);
  sim::Rng rng(seed);
  net::SyntheticStaticOptions opt;
  opt.count = statics;
  config.statics = net::synthetic_static(opt, rng);
  sim::Rng dyn_rng(seed ^ 0x5DEECE66DULL);
  net::SaeAperiodicOptions sae;
  sae.static_slots = static_cast<int>(config.cluster.g_number_of_static_slots);
  config.dynamics = net::sae_aperiodic(sae, dyn_rng);
  config.ber = 1e-7;
  config.sil = fault::Sil::kSil3;
  return config;
}

/// Every bin and the overflow of `pmf`, in %a (exact bits).
std::string bits(const Pmf& pmf) {
  std::string text;
  char buf[40];
  for (const double m : pmf.bins()) {
    std::snprintf(buf, sizeof buf, "%a,", m);
    text += buf;
  }
  std::snprintf(buf, sizeof buf, "overflow %a;", pmf.overflow());
  return text + buf;
}

// The five set sizes of a cold analysis, and one set on a fine, wide grid
// (7 us quantum, 65,536 bins), under CoEfficient: both renders and both
// interference distributions, bit for bit.
TEST(AnalyzeGoldenTest, ColdSets) {
  ProbWcrtOptions fine;
  fine.quantum = sim::micros(7);
  fine.max_bins = 65536;
  const struct {
    std::uint64_t seed;
    std::size_t statics;
    ProbWcrtOptions options;
    const char* digest;
  } cells[] = {
      {101, 20, ProbWcrtOptions{}, "85813e04f6cb8d42"},
      {102, 40, ProbWcrtOptions{}, "b11490d2f033b613"},
      {103, 60, ProbWcrtOptions{}, "eca84c024694fec3"},
      {104, 80, ProbWcrtOptions{}, "89f31d6a479cd49f"},
      {105, 100, ProbWcrtOptions{}, "c3a44d6d0f1305a9"},
      {106, 100, fine, "e98517f498ea8e27"},
  };
  for (const auto& cell : cells) {
    SCOPED_TRACE("seed " + std::to_string(cell.seed));
    const auto setup =
        campaign::make_prob_setup(cold_config(cell.seed, cell.statics),
                                  core::SchemeKind::kCoEfficient, cell.options);
    ASSERT_TRUE(setup->has_dynamics);
    const ProbWcrtResult prob = analyze_prob_wcrt(setup->input);
    const DynWcrtResult dyn = analyze_dyn_wcrt(setup->dyn_input);
    EXPECT_EQ(digest(render_prob_text(setup->input, prob) +
                     render_prob_json(setup->input, prob) +
                     render_dyn_text(setup->dyn_input, dyn) +
                     render_dyn_json(setup->dyn_input, dyn) +
                     bits(prob.interference) + bits(dyn.interference)),
              cell.digest);
  }
}

}  // namespace
}  // namespace coeff::analysis
