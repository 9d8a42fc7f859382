#include "analysis/diagnostic.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace coeff::analysis {
namespace {

TEST(RuleCatalogTest, IdsAreUniqueAndNamespaced) {
  std::set<std::string> ids;
  for (const RuleInfo& r : rule_catalog()) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate rule id " << r.id;
    const std::string id = r.id;
    EXPECT_TRUE(id.rfind("schedule.", 0) == 0 || id.rfind("trace.", 0) == 0 ||
                id.rfind("engine.", 0) == 0 || id.rfind("campaign.", 0) == 0 ||
                id.rfind("analysis.", 0) == 0)
        << id
        << " is outside the schedule./trace./engine./campaign./analysis."
           " namespaces";
    EXPECT_NE(std::string(r.summary), "");
  }
  // The catalog itself is the single source of truth for its size; the
  // set only shrinks it if an id is duplicated, which the loop rejects.
  EXPECT_EQ(ids.size(), rule_catalog().size());
  EXPECT_NE(find_rule("schedule.macrotick-roundtrip"), nullptr);
}

TEST(RuleCatalogTest, CatalogIntegrityEveryRuleIsFullyDocumented) {
  // Hardened-catalog contract: every rule carries a unique id, a
  // non-empty description, and a non-empty help URI (surfaced in both
  // SARIF output and --list-rules), and the rendered rule list mentions
  // every id exactly once.
  const std::string listing = render_rule_list();
  std::set<std::string> ids;
  for (const RuleInfo& r : rule_catalog()) {
    ASSERT_NE(r.id, nullptr);
    ASSERT_NE(r.summary, nullptr);
    ASSERT_NE(r.help_uri, nullptr);
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate rule id " << r.id;
    EXPECT_NE(std::string(r.summary), "") << r.id << " lacks a description";
    EXPECT_NE(std::string(r.help_uri), "") << r.id << " lacks a help URI";
    EXPECT_NE(listing.find(r.id), std::string::npos)
        << r.id << " missing from render_rule_list()";
    EXPECT_NE(listing.find(r.help_uri), std::string::npos)
        << r.id << "'s help URI missing from render_rule_list()";
  }
  // The dynamic-segment rules landed with DESIGN.md §15 and must anchor
  // there (the help URI is a stable deep link, not decoration).
  for (const char* id : {"analysis.dyn-miss-exceeds-target",
                         "analysis.dyn-starvation",
                         "analysis.dyn-vs-campaign-divergence"}) {
    const RuleInfo* rule = find_rule(id);
    ASSERT_NE(rule, nullptr) << id;
    EXPECT_NE(std::string(rule->help_uri).find("dyn_wcrt"),
              std::string::npos)
        << id << " should anchor at the §15 DESIGN.md section";
  }
}

TEST(RuleCatalogTest, FindRuleRoundTripsAndRejectsUnknown) {
  for (const RuleInfo& r : rule_catalog()) {
    const RuleInfo* found = find_rule(r.id);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->severity, r.severity);
  }
  EXPECT_EQ(find_rule("schedule.no-such-rule"), nullptr);
}

TEST(ReportTest, AddLooksUpCatalogSeverity) {
  Report report;
  report.add("schedule.deadline-risk", "late");  // warning in the catalog
  report.add("trace.tx-overlap", "clash");       // error in the catalog
  EXPECT_EQ(report.count(Severity::kWarning), 1u);
  EXPECT_EQ(report.count(Severity::kError), 1u);
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_rule("trace.tx-overlap"));
  EXPECT_FALSE(report.has_rule("trace.retx-causality"));
}

TEST(ReportTest, UnknownRuleDefaultsToError) {
  Report report;
  report.add("not.in.catalog", "mystery");
  EXPECT_TRUE(report.has_errors());
}

TEST(ReportTest, MergeConcatenates) {
  Report a;
  a.add("trace.tx-overlap", "one");
  Report b;
  b.add("trace.tx-overlap", "two");
  a.merge(std::move(b));
  EXPECT_EQ(a.count_rule("trace.tx-overlap"), 2u);
}

TEST(ReportTest, RenderTextShowsRuleSeverityAndLocation) {
  Report report;
  Location loc;
  loc.message_id = 7;
  loc.slot = 3;
  report.add("schedule.slot-capacity", "too big", loc);
  const std::string text = report.render_text();
  EXPECT_NE(text.find("error"), std::string::npos);
  EXPECT_NE(text.find("schedule.slot-capacity"), std::string::npos);
  EXPECT_NE(text.find("msg 7"), std::string::npos);
  EXPECT_NE(text.find("slot 3"), std::string::npos);
}

TEST(ReportTest, RenderSarifListsCatalogAndEscapesMessages) {
  Report report;
  report.add("trace.cycle-boundary", "bad \"quote\"\nand newline");
  const std::string sarif = report.render_sarif();
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\":\"coeff-lint\""), std::string::npos);
  for (const RuleInfo& r : rule_catalog()) {
    EXPECT_NE(sarif.find(std::string("\"id\":\"") + r.id + '"'),
              std::string::npos)
        << r.id << " missing from the SARIF rules array";
  }
  EXPECT_NE(sarif.find("\"ruleId\":\"trace.cycle-boundary\""),
            std::string::npos);
  EXPECT_NE(sarif.find("bad \\\"quote\\\"\\nand newline"), std::string::npos);
  EXPECT_EQ(sarif.find('\n'), std::string::npos);  // single-line JSON
  // Every catalog rule ships its help URI into the SARIF rules array.
  EXPECT_NE(sarif.find("\"helpUri\":\""), std::string::npos);
  for (const RuleInfo& r : rule_catalog()) {
    EXPECT_NE(sarif.find(std::string("\"helpUri\":\"") + r.help_uri + '"'),
              std::string::npos)
        << r.id << " help URI missing from the SARIF rules array";
  }
}

TEST(CappedReportTest, CapsEachRuleAtEightWithOneNote) {
  Report report;
  CappedReport out(report);
  for (int i = 0; i < 10; ++i) {
    Location loc;
    loc.message_id = i;
    out.add("trace.tx-overlap", strformat("clash %d", i), loc);
  }
  out.add("schedule.deadline-risk", "late");

  // Eight findings, then the note, then the second rule on its own count.
  const std::vector<Diagnostic>& diags = report.diagnostics();
  ASSERT_EQ(diags.size(), 10u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(diags[i].rule, "trace.tx-overlap");
    EXPECT_EQ(diags[i].severity, Severity::kError);
    EXPECT_EQ(diags[i].message, strformat("clash %d", i));
    EXPECT_EQ(diags[i].loc.message_id, i);
  }
  EXPECT_EQ(diags[8].rule, "trace.tx-overlap");
  EXPECT_EQ(diags[8].severity, Severity::kNote);
  EXPECT_EQ(diags[8].message, "further diagnostics for this rule suppressed");
  EXPECT_EQ(diags[9].rule, "schedule.deadline-risk");
  EXPECT_EQ(diags[9].severity, Severity::kWarning);
  EXPECT_EQ(report.count_rule("trace.tx-overlap"), 9u);
  EXPECT_EQ(report.count(Severity::kNote), 1u);
}

TEST(CappedReportTest, DiagnosticKeepsItsOwnSeverity) {
  Report report;
  CappedReport out(report);
  Diagnostic d;
  d.rule = "analysis.dyn-starvation";  // an error in the catalog
  d.severity = Severity::kWarning;
  d.message = "saturated";
  out.add(d);
  ASSERT_EQ(report.diagnostics().size(), 1u);
  EXPECT_EQ(report.diagnostics()[0].severity, Severity::kWarning);
}

TEST(StrformatTest, FormatsLikePrintf) {
  EXPECT_EQ(strformat("m %d needs %lld bits", 3, 1024LL),
            "m 3 needs 1024 bits");
}

TEST(SeverityTest, ToStringCoversAllLevels) {
  EXPECT_STREQ(to_string(Severity::kNote), "note");
  EXPECT_STREQ(to_string(Severity::kWarning), "warning");
  EXPECT_STREQ(to_string(Severity::kError), "error");
}

}  // namespace
}  // namespace coeff::analysis
