#include "analysis/diagnostic.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace coeff::analysis {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

namespace {

/// SARIF "level" for a severity ("note" | "warning" | "error").
const char* sarif_level(Severity s) {
  switch (s) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "none";
}

}  // namespace

namespace {

// Help URIs: the design-doc section that defines each rule family
// (GitHub-style heading anchors; surfaced in --list-rules and as the
// SARIF rule helpUri).
constexpr const char* kHelpSchedule = "DESIGN.md#9-static-analysis-srcanalysis";
constexpr const char* kHelpTrace = "DESIGN.md#9-static-analysis-srcanalysis";
constexpr const char* kHelpEngine =
    "DESIGN.md#12-compiled-cycle-engine-flexraycluster-corecycle_template";
constexpr const char* kHelpCampaign =
    "DESIGN.md#13-crash-safe-campaign-engine-srccampaign";
constexpr const char* kHelpProb =
    "DESIGN.md#14-analytic-probabilistic-wcrt-verifier-analysisprob_wcrt-"
    "analysispmf";
constexpr const char* kHelpDyn =
    "DESIGN.md#15-dynamic-segment-probabilistic-verifier-analysisdyn_wcrt";
constexpr const char* kHelpMode =
    "DESIGN.md#16-mixed-criticality-mode-change-protocol-schedcriticality";

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      // --- ScheduleLint ---------------------------------------------------
      {"schedule.config-valid", Severity::kError,
       "cluster configuration violates a FlexRay parameter constraint",
       kHelpSchedule},
      {"schedule.message-set-valid", Severity::kError,
       "message set fails structural validation", kHelpSchedule},
      {"schedule.deadline-period", Severity::kError,
       "message deadline must lie in (0, period]", kHelpSchedule},
      {"schedule.frame-id-unique", Severity::kError,
       "two frames claim the same (slot, cycle) on one channel",
       kHelpSchedule},
      {"schedule.slot-bounds", Severity::kError,
       "slot assignment outside [1, gNumberOfStaticSlots] or an illegal "
       "base-cycle/repetition",
       kHelpSchedule},
      {"schedule.slot-capacity", Severity::kError,
       "static payload exceeds what one static slot carries", kHelpSchedule},
      {"schedule.period-cycle", Severity::kError,
       "static message period is not a whole multiple of the communication "
       "cycle",
       kHelpSchedule},
      {"schedule.minislot-budget", Severity::kError,
       "dynamic frame can never fit the dynamic segment (minislots or "
       "pLatestTx)",
       kHelpSchedule},
      {"schedule.minislot-load", Severity::kWarning,
       "expected dynamic-segment demand exceeds the per-cycle minislot "
       "budget",
       kHelpSchedule},
      {"schedule.unplaced", Severity::kError,
       "static message could not be placed in any slot phase", kHelpSchedule},
      {"schedule.deadline-risk", Severity::kWarning,
       "placement latency exceeds the message deadline (TDMA cannot do "
       "better)",
       kHelpSchedule},
      {"schedule.hyperperiod-overflow", Severity::kError,
       "hyperperiod of the set overflows the supported horizon",
       kHelpSchedule},
      {"schedule.macrotick-roundtrip", Severity::kWarning,
       "configured macrotick lengths do not round-trip through the units "
       "layer's time conversions",
       kHelpSchedule},
      {"schedule.theorem1-recheck", Severity::kError,
       "closed-form Theorem-1 recheck of the retransmission plan failed",
       kHelpSchedule},
      {"schedule.plan-degraded", Severity::kWarning,
       "retransmission plan is degraded: rho unreachable within the copy "
       "bound",
       kHelpSchedule},
      {"schedule.slack-infeasible", Severity::kWarning,
       "offline periodic schedule of the static set misses a deadline",
       kHelpSchedule},
      {"schedule.rta-deadline", Severity::kWarning,
       "worst-case response time exceeds the deadline (sufficient RTA "
       "test)",
       kHelpSchedule},
      // --- TraceLint ------------------------------------------------------
      {"trace.kind-valid", Severity::kError,
       "trace record carries an out-of-range enum tag", kHelpTrace},
      {"trace.monotonic-time", Severity::kError,
       "cycle-start timestamps do not advance", kHelpTrace},
      {"trace.cycle-boundary", Severity::kError,
       "cycle-start record off the cycle grid", kHelpTrace},
      {"trace.tx-overlap", Severity::kError,
       "two transmissions overlap on one channel", kHelpTrace},
      {"trace.retx-causality", Severity::kError,
       "retransmission transmitted without a justifying cause", kHelpTrace},
      {"trace.plan-swap-boundary", Severity::kError,
       "plan swap not aligned to a cycle boundary", kHelpTrace},
      {"trace.load-shed-degraded", Severity::kError,
       "load shed while the scheduler was not degraded", kHelpTrace},
      {"trace.structural-boundary", Severity::kError,
       "structural transition (crash/restart/blackout) off the cycle grid",
       kHelpTrace},
      {"trace.structural-causality", Severity::kError,
       "structural transition without a matching prior state (restart "
       "without crash, channel-up without channel-down, double-down)",
       kHelpTrace},
      {"trace.failover-causality", Severity::kError,
       "failover copy without a dark home channel, or on a dark wire",
       kHelpTrace},
      {"trace.dead-channel-tx", Severity::kError,
       "transmission recorded on a channel currently blacked out",
       kHelpTrace},
      {"trace.vote-consistency", Severity::kError,
       "replica-vote verdict inconsistent with its clean-copy count",
       kHelpTrace},
      {"engine.template-invalidation", Severity::kError,
       "transmission while the compiled cycle template was stale (plan "
       "swap / membership / channel event without a rebuild marker)",
       kHelpEngine},
      // --- CampaignLint ---------------------------------------------------
      {"campaign.manifest-consistency", Severity::kError,
       "campaign manifest, shard checkpoints and result rows disagree "
       "(corruption, identity mismatch, or unaccounted cells)",
       kHelpCampaign},
      // --- ProbWcrt (analysis::analyze_prob_wcrt, DESIGN.md §14) ----------
      {"analysis.prob-miss-exceeds-target", Severity::kError,
       "analytic P(deadline miss) puts the set's reliability below the "
       "configured target while the plan claims the target is met",
       kHelpProb},
      {"analysis.kz-contradiction", Severity::kError,
       "analytic response-time distribution contradicts the Theorem-1 k_z "
       "choice (a planned copy cannot land in time, or burst-correlated "
       "loss defeats the memoryless sizing)",
       kHelpProb},
      {"analysis.prob-vs-campaign-divergence", Severity::kError,
       "measured campaign miss ratio falls outside the analytic P(miss) "
       "confidence envelope (modeling or implementation bug)",
       kHelpProb},
      // --- DynWcrt (analysis::analyze_dyn_wcrt, DESIGN.md §15) ------------
      {"analysis.dyn-miss-exceeds-target", Severity::kError,
       "analytic dynamic-segment P(deadline miss) puts the set's "
       "reliability below the configured target while the plan claims the "
       "target is met",
       kHelpDyn},
      {"analysis.dyn-starvation", Severity::kError,
       "dynamic frame's miss-envelope upper edge is 1: load-shed by a "
       "degraded plan, geometrically unable to start (minislot walk past "
       "the pLatestTx cutoff), or saturated by worst-case contention",
       kHelpDyn},
      {"analysis.dyn-vs-campaign-divergence", Severity::kError,
       "measured dynamic-segment campaign miss ratio falls outside the "
       "analytic P(miss) confidence envelope (modeling or implementation "
       "bug)",
       kHelpDyn},
      // --- Mixed-criticality mode protocol (DESIGN.md §16) ----------------
      {"trace.mode-change-boundary", Severity::kError,
       "criticality mode change not aligned to a cycle boundary",
       kHelpMode},
      {"trace.shed-outside-degraded", Severity::kError,
       "dynamic frame shed by criticality while the replayed mode was "
       "NORMAL (or with a mode tag disagreeing with the replay)",
       kHelpMode},
      {"trace.matchup-before-recovery", Severity::kError,
       "shed traffic re-admitted while degraded, or before the recovery "
       "window after the return to NORMAL elapsed",
       kHelpMode},
  };
  return kCatalog;
}

const RuleInfo* find_rule(std::string_view id) {
  for (const RuleInfo& r : rule_catalog()) {
    if (id == r.id) return &r;
  }
  return nullptr;
}

std::string render_rule_list() {
  std::string out;
  for (const RuleInfo& rule : rule_catalog()) {
    out += strformat("%-40s %-8s %s [%s]\n", rule.id, to_string(rule.severity),
                     rule.summary, rule.help_uri);
  }
  return out;
}

std::string strformat(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

std::string Location::describe() const {
  std::string out;
  auto append = [&out](const char* tag, std::int64_t v) {
    if (v < 0) return;
    if (!out.empty()) out += ' ';
    out += tag;
    out += ' ';
    out += std::to_string(v);
  };
  append("msg", message_id);
  append("slot", slot);
  append("cycle", cycle);
  append("record", record);
  return out;
}

void Report::add(Diagnostic d) { diags_.push_back(std::move(d)); }

void Report::add(std::string_view rule, std::string message, Location loc) {
  const RuleInfo* info = find_rule(rule);
  Diagnostic d;
  d.rule = std::string(rule);
  d.severity = info != nullptr ? info->severity : Severity::kError;
  d.message = std::move(message);
  d.loc = loc;
  diags_.push_back(std::move(d));
}

void Report::merge(Report other) {
  diags_.insert(diags_.end(), std::make_move_iterator(other.diags_.begin()),
                std::make_move_iterator(other.diags_.end()));
}

std::size_t Report::count(Severity s) const {
  return static_cast<std::size_t>(
      std::count_if(diags_.begin(), diags_.end(),
                    [s](const Diagnostic& d) { return d.severity == s; }));
}

std::size_t Report::count_rule(std::string_view rule) const {
  return static_cast<std::size_t>(
      std::count_if(diags_.begin(), diags_.end(),
                    [rule](const Diagnostic& d) { return d.rule == rule; }));
}

std::string Report::render_text() const {
  std::string out;
  for (const Diagnostic& d : diags_) {
    out += to_string(d.severity);
    out += ": ";
    out += d.rule;
    out += ": ";
    out += d.message;
    if (!d.loc.empty()) {
      out += " [";
      out += d.loc.describe();
      out += ']';
    }
    out += '\n';
  }
  return out;
}

std::string Report::render_sarif() const {
  std::string out;
  out +=
      "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
      "\"name\":\"coeff-lint\",\"rules\":[";
  bool first = true;
  for (const RuleInfo& r : rule_catalog()) {
    if (!first) out += ',';
    first = false;
    out += "{\"id\":\"";
    out += json_escape(r.id);
    out += "\",\"shortDescription\":{\"text\":\"";
    out += json_escape(r.summary);
    out += "\"},\"helpUri\":\"";
    out += json_escape(r.help_uri);
    out += "\"}";
  }
  out += "]}},\"results\":[";
  first = true;
  for (const Diagnostic& d : diags_) {
    if (!first) out += ',';
    first = false;
    out += "{\"ruleId\":\"";
    out += json_escape(d.rule);
    out += "\",\"level\":\"";
    out += sarif_level(d.severity);
    out += "\",\"message\":{\"text\":\"";
    out += json_escape(d.message);
    out += "\"}";
    if (!d.loc.empty()) {
      out +=
          ",\"locations\":[{\"logicalLocations\":[{"
          "\"fullyQualifiedName\":\"";
      out += json_escape(d.loc.describe());
      out += "\"}]}]";
    }
    out += '}';
  }
  out += "]}]}";
  return out;
}

void CappedReport::add(std::string_view rule, std::string message,
                       Location loc) {
  Diagnostic d;
  d.rule = std::string(rule);
  if (const RuleInfo* info = find_rule(rule)) d.severity = info->severity;
  d.message = std::move(message);
  d.loc = loc;
  add(std::move(d));
}

void CappedReport::add(Diagnostic d) {
  const std::size_t n = ++per_rule_[d.rule];
  if (n > kMaxPerRule) return;
  if (n < kMaxPerRule) {
    report_.add(std::move(d));
    return;
  }
  Diagnostic note;
  note.rule = d.rule;
  note.severity = Severity::kNote;
  note.message = "further diagnostics for this rule suppressed";
  report_.add(std::move(d));
  report_.add(std::move(note));
}

}  // namespace coeff::analysis
