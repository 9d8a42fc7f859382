// libFuzzer harness for coeffctl's flag grammar (src/cli/).
//
// The first input byte picks one of the four shipped tables (byte % 4:
// '0' run, '1' lint, '2' analyze, '3' campaign); the rest is tokenized
// into argv on NUL and newline. Contract under test: cli::parse is total
// — any token list yields bound options or a one-line error, without
// throwing or reading out of bounds. After an accepted parse every
// numeric row's value lies inside the interval its --help line declares
// (checked here, independently of the row's own parser), and every value
// a row shows parses back through that row unchanged. A rejected parse
// carries a non-empty error without '\n'.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "cli/commands.hpp"

namespace {

using namespace coeff;

/// `value` against a declared "in [lo, hi]", "in (lo, hi]" or
/// "in [lo, inf)"; long double holds every 64-bit integer exactly.
bool inside(const std::string& range, const std::string& value) {
  const std::size_t comma = range.find(", ");
  const std::string hi = range.substr(comma + 2, range.size() - comma - 3);
  const long double v = std::strtold(value.c_str(), nullptr);
  const long double lo = std::strtold(range.c_str() + 4, nullptr);
  return (range[3] == '(' ? lo < v : lo <= v) &&
         (hi == "inf" || v <= std::strtold(hi.c_str(), nullptr));
}

/// Parses `args` and checks the outcome against the contract above.
/// True when the options were bound (accepted, not --help).
bool bound(const cli::Table& table, const std::vector<std::string>& args) {
  const cli::Parse parse = cli::parse(table, args);
  if (!parse.error.empty()) {
    if (parse.error.find('\n') != std::string::npos) __builtin_trap();
    return false;
  }
  for (const cli::Row& row : table.rows) {
    const std::string shown = row.show ? row.show() : std::string();
    if (shown.empty()) continue;
    const bool numeric = row.range.starts_with("in [") ||
                         row.range.starts_with("in (");
    if (numeric && !inside(row.range, shown)) __builtin_trap();
    if (!row.bind(shown) || row.show() != shown) __builtin_trap();
  }
  (void)cli::render_help(table);
  return !parse.help;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const unsigned which = data[0] % 4U;
  const std::string_view bytes(reinterpret_cast<const char*>(data) + 1,
                               size - 1);

  // Tokenize on NUL and newline; empty tokens count ("--sarif" ""),
  // except the one after a trailing separator.
  std::vector<std::string> args;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= bytes.size() && args.size() <= 64; ++i) {
    if (i == bytes.size() || bytes[i] == '\0' || bytes[i] == '\n') {
      if (i < bytes.size() || i > start) {
        args.emplace_back(bytes.substr(start, i - start));
      }
      start = i + 1;
    }
  }

  if (which == 0) {
    cli::ExperimentOptions opt;
    (void)bound(cli::run_table(opt), args);
  } else if (which == 1) {
    cli::LintOptions opt;
    (void)bound(cli::lint_table(opt), args);
  } else if (which == 2) {
    cli::AnalyzeOptions opt;
    // --prob is required: without it only --help or an error is valid.
    if (bound(cli::analyze_table(opt), args) && !opt.prob) __builtin_trap();
  } else {
    cli::CampaignFlags opt;
    if (bound(cli::campaign_table(opt), args) && opt.dir.empty()) {
      __builtin_trap();
    }
  }
  return 0;
}
