// coeff-lint diagnostics (DESIGN.md §9).
//
// Every static-analysis rule reports through a `Diagnostic`: a stable
// rule id ("schedule.slot-bounds"), a severity, a human-readable
// message and an optional location into the artifact being linted (a
// message id, a slot/cycle coordinate, or a trace record index). A
// `Report` collects diagnostics across linters; `render_text` is the
// terminal form, `render_sarif` a SARIF 2.1.0 document for CI
// annotation. Unlike the `validate()` methods scattered through the
// model types — which throw on the *first* violation — a lint pass
// keeps going and reports everything it finds.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace coeff::analysis {

enum class Severity : std::uint8_t { kNote, kWarning, kError };

[[nodiscard]] constexpr const char* to_string(Severity s) {
  switch (s) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

/// Where a diagnostic points. All fields optional (-1 = unset); linters
/// fill whichever coordinates exist in their artifact.
struct Location {
  int message_id = -1;       ///< offending message, if any
  std::int64_t slot = -1;    ///< static slot / dynamic slot counter
  std::int64_t cycle = -1;   ///< communication cycle
  std::int64_t record = -1;  ///< index into the linted trace

  [[nodiscard]] bool empty() const {
    return message_id < 0 && slot < 0 && cycle < 0 && record < 0;
  }
  /// "msg 7 slot 3 cycle 2" (empty string when nothing is set).
  [[nodiscard]] std::string describe() const;
};

struct Diagnostic {
  std::string rule;  ///< stable id, e.g. "schedule.slot-bounds"
  Severity severity = Severity::kError;
  std::string message;
  Location loc;
};

/// One rule's catalog entry: id, default severity, one-line summary and
/// a help URI (the design-doc section that defines the rule). The
/// catalog backs `coeffctl lint --list-rules` and the SARIF rule
/// metadata; every rule a linter can emit must be registered here, with
/// a non-empty summary and help URI (enforced by the catalog-integrity
/// unit test).
struct RuleInfo {
  const char* id;
  Severity severity;
  const char* summary;
  const char* help_uri;
};

[[nodiscard]] const std::vector<RuleInfo>& rule_catalog();
[[nodiscard]] const RuleInfo* find_rule(std::string_view id);

/// The `coeffctl lint --list-rules` listing: one line per catalog rule
/// (id, severity, summary, help URI). Unit-tested to cover every
/// registered rule, so the CLI listing can never silently drop one.
[[nodiscard]] std::string render_rule_list();

/// printf-style std::string builder for diagnostic messages.
[[nodiscard, gnu::format(printf, 1, 2)]] std::string strformat(
    const char* fmt, ...);

/// Escape a string for embedding in a JSON string literal.
[[nodiscard]] std::string json_escape(std::string_view s);

class Report {
 public:
  void add(Diagnostic d);
  /// Convenience: add with the rule's catalog severity.
  void add(std::string_view rule, std::string message, Location loc = {});
  void merge(Report other);

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const {
    return diags_;
  }
  [[nodiscard]] bool empty() const { return diags_.empty(); }
  [[nodiscard]] std::size_t count(Severity s) const;
  [[nodiscard]] std::size_t count_rule(std::string_view rule) const;
  [[nodiscard]] bool has_rule(std::string_view rule) const {
    return count_rule(rule) > 0;
  }
  [[nodiscard]] bool has_errors() const { return count(Severity::kError) > 0; }

  /// One line per diagnostic: "error: schedule.slot-bounds: ... [slot 99]".
  [[nodiscard]] std::string render_text() const;
  /// SARIF 2.1.0 document (tool = coeff-lint) suitable for CI upload.
  [[nodiscard]] std::string render_sarif() const;

 private:
  std::vector<Diagnostic> diags_;
};

/// Per-rule flood guard every linter reports through: a systematically
/// broken input yields at most kMaxPerRule findings of one rule, the
/// last followed by one "further diagnostics for this rule suppressed"
/// note, instead of thousands of identical lines.
class CappedReport {
 public:
  static constexpr std::size_t kMaxPerRule = 8;

  explicit CappedReport(Report& report) : report_(report) {}

  /// Adds with the rule's catalog severity.
  void add(std::string_view rule, std::string message, Location loc = {});
  void add(Diagnostic d);

 private:
  Report& report_;
  std::map<std::string, std::size_t> per_rule_;
};

}  // namespace coeff::analysis
