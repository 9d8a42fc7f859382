#include "cli/flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cli/commands.hpp"

namespace coeff::cli {
namespace {

using Args = std::vector<std::string>;

/// A small table with one row of every kind.
struct Toy {
  bool on = false;
  int count = 3;
  std::uint64_t seed = 42;
  double ratio = 0.5;
  double factor = 5.0;
  sim::Time window = sim::millis(100);
  std::string path;
  std::string label = "x";
  core::SchemeKind scheme = core::SchemeKind::kCoEfficient;
  std::vector<std::string> items;

  Table table() {
    return Table{
        "toy [options]",
        "",
        {flag("--on", "a switch", on),
         number("--count", "N", "a bounded integer", count, 1, 10),
         number("--seed", "N", "an unsigned integer", seed, std::uint64_t{0},
                 std::numeric_limits<std::uint64_t>::max()),
         number("--ratio", "X", "a closed real", ratio, 0.0, 1.0),
         number("--factor", "X", "an open real", factor, 1.0,
              std::numeric_limits<double>::infinity(), /*lo_open=*/true),
         millis("--window-ms", "MS", "a duration", window, 1, 1000),
         text("--path", "PATH", "non-empty text", path, /*non_empty=*/true),
         text("--label", "S", "any text", label),
         choice("--scheme", "NAME", "a choice", scheme,
                {{"coefficient", core::SchemeKind::kCoEfficient},
                 {"fspec", core::SchemeKind::kFspec}}),
         spec("--item", "A:B", "a repeatable spec", "A:B",
              [this](std::string_view text) {
                if (text.find(':') == std::string_view::npos) return false;
                items.emplace_back(text);
                return true;
              })}};
  }
};

Parse run(Toy& toy, const Args& args) { return parse(toy.table(), args); }

bool accepts(const Table& table, const Args& args) {
  return parse(table, args).error.empty();
}

void expect_one_line_error(const Parse& p) {
  EXPECT_FALSE(p.error.empty());
  EXPECT_FALSE(p.error.empty());
  EXPECT_EQ(p.error.find('\n'), std::string::npos) << p.error;
}

TEST(FlagGrammar, EmptyArgsKeepDefaults) {
  Toy toy;
  const Parse p = run(toy, {});
  EXPECT_TRUE(p.error.empty());
  EXPECT_FALSE(p.help);
  EXPECT_EQ(toy.count, 3);
  EXPECT_EQ(toy.window, sim::millis(100));
}

TEST(FlagGrammar, IntegerRangeEdges) {
  using Case = std::tuple<std::string, bool, int>;
  for (const auto& [value, ok, bound] :
       std::vector<Case>{{"1", true, 1}, {"10", true, 10}, {"0", false, 3},
                         {"11", false, 3}}) {
    Toy toy;
    const Parse p = run(toy, {"--count", value});
    EXPECT_EQ(p.error.empty(), ok) << value;
    EXPECT_EQ(toy.count, bound) << value;
    if (!ok) {
      expect_one_line_error(p);
      EXPECT_NE(p.error.find("--count"), std::string::npos);
      EXPECT_NE(p.error.find("[1, 10]"), std::string::npos);
    }
  }
}

TEST(FlagGrammar, RealRangeEdges) {
  for (const auto& [value, ok] : std::vector<std::pair<std::string, bool>>{
           {"0", true}, {"1", true}, {"-0.000001", false}, {"1.000001", false},
           {"nan", false}, {"inf", false}}) {
    Toy toy;
    EXPECT_EQ(run(toy, {"--ratio", value}).error.empty(), ok) << value;
  }
  // (1, inf): the open bound itself is out, anything above it is in.
  for (const auto& [value, ok] : std::vector<std::pair<std::string, bool>>{
           {"1", false}, {"1.0000001", true}, {"1e300", true}, {"inf", false},
           {"0.5", false}}) {
    Toy toy;
    EXPECT_EQ(run(toy, {"--factor", value}).error.empty(), ok) << value;
  }
}

TEST(FlagGrammar, MillisRangeEdgesBindTime) {
  Toy toy;
  ASSERT_TRUE(run(toy, {"--window-ms", "1"}).error.empty());
  EXPECT_EQ(toy.window, sim::millis(1));
  ASSERT_TRUE(run(toy, {"--window-ms", "1000"}).error.empty());
  EXPECT_EQ(toy.window, sim::millis(1000));
  EXPECT_FALSE(run(toy, {"--window-ms", "0"}).error.empty());
  EXPECT_FALSE(run(toy, {"--window-ms", "1001"}).error.empty());
  EXPECT_EQ(toy.window, sim::millis(1000));
}

TEST(FlagGrammar, NumbersParseTheWholeToken) {
  for (const std::string bad :
       {"10x", "abc", "", " 5", "5 ", "0x10", "1e2", "99999999999999999999"}) {
    Toy toy;
    const Parse p = run(toy, {"--count", bad});
    expect_one_line_error(p);
    EXPECT_EQ(toy.count, 3) << bad;
  }
  Toy toy;
  EXPECT_FALSE(run(toy, {"--seed", "-1"}).error.empty());  // unsigned: no '-'
  EXPECT_FALSE(run(toy, {"--seed", "18446744073709551616"}).error.empty());
  EXPECT_TRUE(run(toy, {"--seed", "18446744073709551615"}).error.empty());
  EXPECT_EQ(toy.seed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(run(toy, {"--ratio", "0.5x"}).error.empty());
}

TEST(FlagGrammar, MissingValueUnknownFlagAndStrayArgument) {
  Toy toy;
  Parse p = run(toy, {"--count"});
  expect_one_line_error(p);
  EXPECT_NE(p.error.find("needs a value"), std::string::npos);
  p = run(toy, {"--bogus", "1"});
  expect_one_line_error(p);
  EXPECT_NE(p.error.find("'--bogus'"), std::string::npos);
  p = run(toy, {"stray"});
  expect_one_line_error(p);
  EXPECT_NE(p.error.find("'stray'"), std::string::npos);
}

TEST(FlagGrammar, RepeatedScalarKeepsLastValue) {
  Toy toy;
  ASSERT_TRUE(run(toy, {"--count", "2", "--count", "7", "--scheme", "fspec",
                        "--scheme", "coefficient"})
                  .error.empty());
  EXPECT_EQ(toy.count, 7);
  EXPECT_EQ(toy.scheme, core::SchemeKind::kCoEfficient);
}

TEST(FlagGrammar, RepeatedSpecAccumulates) {
  Toy toy;
  ASSERT_TRUE(run(toy, {"--item", "a:1", "--item", "b:2"}).error.empty());
  EXPECT_EQ(toy.items, (std::vector<std::string>{"a:1", "b:2"}));
  EXPECT_FALSE(run(toy, {"--item", "nocolon"}).error.empty());
  EXPECT_EQ(toy.items.size(), 2u);
}

TEST(FlagGrammar, TextAndChoiceRows) {
  Toy toy;
  EXPECT_FALSE(run(toy, {"--path", ""}).error.empty());
  EXPECT_TRUE(run(toy, {"--label", ""}).error.empty());
  EXPECT_EQ(toy.label, "");
  const Parse p = run(toy, {"--scheme", "hosa"});
  expect_one_line_error(p);
  EXPECT_NE(p.error.find("coefficient|fspec"), std::string::npos);
}

TEST(FlagGrammar, HelpStopsParsingAndAliasesDashH) {
  for (const std::string help : {"--help", "-h"}) {
    Toy toy;
    const Parse p = run(toy, {"--count", "4", help, "--count", "abc"});
    EXPECT_TRUE(p.help);
    EXPECT_TRUE(p.error.empty());
    EXPECT_EQ(toy.count, 4);
  }
  Toy toy;
  EXPECT_FALSE(run(toy, {"--count", "abc", "--help"}).error.empty());
}

TEST(FlagGrammar, ErrorLineMasksControlBytes) {
  Toy toy;
  const Parse p = run(toy, {"--count", std::string("1\n2\0", 4)});
  expect_one_line_error(p);
  EXPECT_NE(p.error.find("'1?2?'"), std::string::npos) << p.error;
}

TEST(FlagGrammar, HelpShowsEveryRowWithRangeAndDefault) {
  Toy toy;
  const std::string help = render_help(toy.table());
  EXPECT_NE(help.find("--count N"), std::string::npos);
  EXPECT_NE(help.find("[1, 10] (default: 3)"), std::string::npos);
  EXPECT_NE(help.find("(1, inf) (default: 5)"), std::string::npos);
  EXPECT_NE(help.find("{coefficient|fspec} (default: coefficient)"),
            std::string::npos);
  EXPECT_NE(help.find("--help, -h"), std::string::npos);
}

// --- The shipped tables --------------------------------------------------

TEST(CoeffctlTables, CampaignVerbIsPositionalAndRequired) {
  CampaignFlags flags;
  EXPECT_TRUE(accepts(campaign_table(flags),
                      {"report", "--dir", "d", "--json"}));
  EXPECT_EQ(flags.verb, CampaignVerb::kReport);
  EXPECT_TRUE(flags.json);
  CampaignFlags none;
  EXPECT_FALSE(accepts(campaign_table(none), {"--dir", "d"}));
  CampaignFlags nodir;
  EXPECT_FALSE(accepts(campaign_table(nodir), {"run"}));
  CampaignFlags twice;
  EXPECT_FALSE(accepts(campaign_table(twice), {"run", "run", "--dir", "d"}));
  CampaignFlags bad;
  EXPECT_FALSE(accepts(campaign_table(bad), {"frobnicate", "--dir", "d"}));
}

TEST(CoeffctlTables, CampaignRangesMatchTheManifestValidator) {
  const auto run_accepts = [](const Args& args) {
    CampaignFlags flags;
    Args all = {"run", "--dir", "d"};
    all.insert(all.end(), args.begin(), args.end());
    return accepts(campaign_table(flags), all);
  };
  EXPECT_TRUE(run_accepts({"--shards", "1"}));
  EXPECT_TRUE(run_accepts({"--shards", "4096"}));
  EXPECT_FALSE(run_accepts({"--shards", "0"}));
  EXPECT_FALSE(run_accepts({"--shards", "4097"}));
  EXPECT_TRUE(run_accepts({"--max-attempts", "16"}));
  EXPECT_FALSE(run_accepts({"--max-attempts", "17"}));
  EXPECT_FALSE(run_accepts({"--cells", "0"}));
  EXPECT_FALSE(run_accepts({"--min-util", "0"}));
  EXPECT_TRUE(run_accepts({"--min-util", "1"}));
  EXPECT_FALSE(run_accepts({"--schemes", "coefficient,"}));
  CampaignFlags flags;
  ASSERT_TRUE(accepts(campaign_table(flags),
                      {"run", "--dir", "d", "--schemes", "hosa,fspec"}));
  EXPECT_EQ(flags.manifest.distribution.schemes,
            (std::vector<core::SchemeKind>{core::SchemeKind::kHosa,
                                           core::SchemeKind::kFspec}));
  EXPECT_NO_THROW(flags.manifest.validate());
}

TEST(CoeffctlTables, ExperimentRowsBindTheConfigDirectly) {
  RunOptions opt;
  ASSERT_TRUE(accepts(run_table(opt),
                      {"--ber", "1e-5", "--sil", "4", "--window-ms", "250",
                       "--seed", "7", "--ber-step-ms", "100", "--ber-step",
                       "2e-5", "--monitor", "--monitor-factor", "3",
                       "--outage-ms", "10", "--vote", "3", "--jobs", "0"}));
  const core::ExperimentConfig& c = opt.config;
  EXPECT_EQ(c.ber, 1e-5);
  EXPECT_EQ(c.sil, fault::Sil::kSil4);
  EXPECT_EQ(c.batch_window, sim::millis(250));
  EXPECT_EQ(c.seed, 7u);
  EXPECT_EQ(c.ber_step_at, sim::millis(100));
  EXPECT_EQ(c.ber_step, 2e-5);
  EXPECT_TRUE(c.enable_monitor);
  EXPECT_EQ(c.monitor.trigger_factor, 3.0);
  EXPECT_EQ(c.structural.stochastic_blackouts.mean_outage, sim::millis(10));
  EXPECT_EQ(c.vote_replicas, 3);
  EXPECT_EQ(opt.jobs, 0);
}

TEST(CoeffctlTables, StructuralSpecsParseEveryFieldAndAccumulate) {
  LintOptions opt;
  ASSERT_TRUE(accepts(lint_table(opt),
                      {"--crash", "1:80:140", "--crash", "2:0:10",
                       "--blackout", "b:5:20", "--babble", "2:8:10:60:B",
                       "--babble", "1:3:30:80", "--drift", "3:20:90:5000"}));
  const fault::StructuralFaultConfig& s = opt.config.structural;
  ASSERT_EQ(s.crashes.size(), 2u);
  EXPECT_EQ(s.crashes[0].node, units::NodeId{1});
  EXPECT_EQ(s.crashes[0].restart, sim::millis(140));
  ASSERT_EQ(s.blackouts.size(), 1u);
  EXPECT_EQ(s.blackouts[0].channel, flexray::ChannelId::kB);
  ASSERT_EQ(s.babbles.size(), 2u);
  EXPECT_EQ(s.babbles[0].slot, units::SlotId{8});
  EXPECT_EQ(s.babbles[0].channel, flexray::ChannelId::kB);
  EXPECT_FALSE(s.babbles[1].channel.has_value());
  ASSERT_EQ(s.drifts.size(), 1u);
  EXPECT_EQ(s.drifts[0].excess_ppm, 5000.0);
  EXPECT_NO_THROW(s.validate(opt.config.cluster.num_nodes));

  for (const Args& bad : std::vector<Args>{
           {"--crash", "1:abc:30"}, {"--crash", "1:10"},
           {"--crash", "-1:10:30"}, {"--crash", "1:10:30:40"},
           {"--blackout", "C:5:20"}, {"--babble", "x:2:0:10"},
           {"--babble", "1:0:0:10"}, {"--babble", "1:2:0:10:AB"},
           {"--drift", "3:20:90:0"}, {"--drift", "3:20:90:abc"}}) {
    LintOptions fresh;
    const Parse p = parse(lint_table(fresh), bad);
    expect_one_line_error(p);
    EXPECT_NE(p.error.find(bad[0]), std::string::npos) << p.error;
  }
}

TEST(CoeffctlTables, SubcommandTablesRejectEachOthersFlags) {
  RunOptions run;
  EXPECT_FALSE(accepts(run_table(run), {"--list-rules"}));
  EXPECT_FALSE(accepts(run_table(run), {"--trace"}));
  LintOptions lint;
  EXPECT_FALSE(accepts(lint_table(lint), {"--jobs", "2"}));
  EXPECT_TRUE(accepts(lint_table(lint), {"--sarif", ""}));
  AnalyzeOptions analyze;
  EXPECT_FALSE(accepts(analyze_table(analyze), {"--workload", "acc"}));
  EXPECT_FALSE(accepts(analyze_table(analyze), {"--prob", "--sarif", ""}));
  EXPECT_FALSE(
      accepts(analyze_table(analyze), {"--prob", "--campaign", ""}));
  EXPECT_FALSE(accepts(analyze_table(analyze), {"--prob", "--trace"}));
  EXPECT_TRUE(accepts(analyze_table(analyze),
                      {"--prob", "--workload", "acc", "--quantum-us", "100"}));
  EXPECT_EQ(analyze.quantum_us, 100);
}

TEST(CoeffctlTables, ModePolicyAndCriticalityParseAtTheFlag) {
  RunOptions opt;
  ASSERT_TRUE(accepts(run_table(opt),
                      {"--mode-policy", "aggressive,dwell=5", "--criticality",
                       "static=high,7=medium"}));
  EXPECT_TRUE(opt.config.mode_policy.enabled);
  EXPECT_EQ(opt.config.mode_policy.min_dwell_cycles, 5);
  ASSERT_TRUE(opt.criticality.has_value());
  // An empty value switches each back off, as an absent flag would.
  ASSERT_TRUE(
      accepts(run_table(opt), {"--mode-policy", "", "--criticality", ""}));
  EXPECT_FALSE(opt.config.mode_policy.enabled);
  EXPECT_FALSE(opt.criticality.has_value());
  RunOptions bad;
  EXPECT_FALSE(accepts(run_table(bad), {"--mode-policy", "bogus"}));
  EXPECT_FALSE(accepts(run_table(bad), {"--criticality", "7=ultra"}));
}

/// Every row of every shipped table, with fresh options behind it.
struct Shipped {
  RunOptions run;
  LintOptions lint;
  AnalyzeOptions analyze;
  CampaignFlags campaign;
  int figure_jobs = 0;
  std::string figure_json = "BENCH_sweep.json";
  fault::FaultModelConfig example_fm;

  std::vector<Table> tables() {
    return {run_table(run),
            lint_table(lint),
            analyze_table(analyze),
            campaign_table(campaign),
            Table{"figure", "", sweep_rows(figure_jobs, figure_json)},
            Table{"fault_injection", "", fault_model_rows(example_fm)}};
  }
};

// A default --help prints must parse back through its own row, unchanged:
// a range that excludes its own default (--minislots 0, --jobs 0) fails.
TEST(CoeffctlTables, EveryRenderedDefaultParsesBackThroughItsRow) {
  Shipped shipped;
  std::size_t checked = 0;
  for (const Table& table : shipped.tables()) {
    const std::string help = render_help(table);
    for (const Row& row : table.rows) {
      EXPECT_NE(help.find("  " + row.name), std::string::npos) << row.name;
      const std::string shown = row.show ? row.show() : "";
      if (shown.empty() || row.required) continue;
      EXPECT_NE(help.find("(default: " + shown + ")"), std::string::npos)
          << table.usage << " " << row.name;
      EXPECT_TRUE(row.bind(shown)) << table.usage << " " << row.name << " "
                                   << shown;
      EXPECT_EQ(row.show(), shown) << table.usage << " " << row.name;
      ++checked;
    }
  }
  EXPECT_GE(checked, 70u);
}

TEST(CoeffctlTables, RowNamesAreUniquePerTable) {
  Shipped shipped;
  for (const Table& table : shipped.tables()) {
    for (std::size_t i = 0; i < table.rows.size(); ++i) {
      for (std::size_t j = i + 1; j < table.rows.size(); ++j) {
        EXPECT_NE(table.rows[i].name, table.rows[j].name) << table.usage;
      }
    }
  }
}

}  // namespace
}  // namespace coeff::cli
