#include "cli/flags.hpp"

#include <algorithm>
#include <cstdio>

namespace coeff::cli {

namespace {

/// `text` quoted for the one-line error: control bytes become '?', long
/// tokens are cut.
std::string quoted(std::string_view text) {
  std::string out(text.substr(0, 64));
  for (char& c : out) {
    if (static_cast<unsigned char>(c) < 0x20 || c == 0x7f) c = '?';
  }
  return "'" + out + (text.size() > 64 ? "...'" : "'");
}

bool is_flag(const Row& row) { return row.name.starts_with("--"); }

/// What the value should have been: "X in [0, 1]".
std::string wanted(const Row& row) {
  const std::string& what = is_flag(row) ? row.metavar : row.name;
  return row.range.empty() ? what : what + " " + row.range;
}

}  // namespace

std::string interval(const std::string& lo, const std::string& hi,
                     bool lo_open) {
  std::string out = lo_open ? "in (" : "in [";
  out += lo + ", ";
  out += hi == "inf" ? "inf)" : hi + "]";
  return out;
}

Parse parse(const Table& table, const std::vector<std::string>& args) {
  Parse out;
  std::vector<bool> seen(table.rows.size(), false);
  const auto fail = [&out](std::string error) {
    out.error = std::move(error);
    return out;
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") {
      out.help = true;
      return out;
    }
    // A token starting with '-' names a flag; any other token fills the
    // next unfilled positional row.
    const bool flag_token = arg.starts_with('-');
    std::size_t r = 0;
    while (r < table.rows.size() &&
           (flag_token ? table.rows[r].name != arg
                       : is_flag(table.rows[r]) || seen[r])) {
      ++r;
    }
    if (r == table.rows.size()) {
      return fail(std::string(flag_token ? "unknown flag "
                                         : "unexpected argument ") +
                  quoted(arg) + " (see --help)");
    }
    const Row& row = table.rows[r];
    std::string_view value = flag_token ? std::string_view() : arg;
    if (flag_token && !row.metavar.empty()) {
      if (i + 1 == args.size()) {
        return fail(row.name + " needs a value: " + wanted(row));
      }
      value = args[++i];
    }
    if (!row.bind(value)) {
      return fail(row.name + " " + quoted(value) + ": expected " +
                  wanted(row));
    }
    seen[r] = true;
  }
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    const Row& row = table.rows[r];
    if (row.required && !seen[r]) {
      return fail(row.name + " is required" +
                  (row.range.empty() ? "" : ": " + wanted(row)));
    }
  }
  return out;
}

std::string render_help(const Table& table) {
  std::string out = "usage: " + table.usage + "\n\n" + table.intro + "\n\n";
  const auto line = [&out](std::string left, const std::string& right) {
    left.resize(std::max<std::size_t>(left.size() + 2, 32), ' ');
    out += left + right + "\n";
  };
  for (const Row& row : table.rows) {
    const std::string value = row.show ? row.show() : "";
    line("  " + row.name +
             (is_flag(row) && !row.metavar.empty() ? " " + row.metavar : ""),
         row.help + (row.range.empty() ? "" : " " + row.range) +
             (row.required    ? " (required)"
              : value.empty() ? ""
                              : " (default: " + value + ")"));
  }
  line("  --help, -h", "this text");
  return out;
}

std::optional<int> early_exit(const Table& table, std::string_view prog,
                              const std::vector<std::string>& args) {
  const Parse result = parse(table, args);
  if (!result.error.empty()) {
    std::fprintf(stderr, "%.*s: %s\n", static_cast<int>(prog.size()),
                 prog.data(), result.error.c_str());
    return 2;
  }
  if (!result.help) return std::nullopt;
  std::fputs(render_help(table).c_str(), stdout);
  return 0;
}

Row spec(std::string name, std::string metavar, std::string help,
         std::string range, std::function<bool(std::string_view)> bind,
         std::function<std::string()> show) {
  return Row{std::move(name),  std::move(metavar), std::move(help),
             std::move(range), std::move(bind),    std::move(show),
             false};
}

Row flag(std::string name, std::string help, bool& target) {
  return spec(std::move(name), "", std::move(help), "",
              [&target](std::string_view) { return target = true; });
}

Row text(std::string name, std::string metavar, std::string help,
         std::string& target, bool non_empty) {
  return spec(
      std::move(name), std::move(metavar), std::move(help),
      non_empty ? "(non-empty)" : "",
      [&target, non_empty](std::string_view value) {
        if (non_empty && value.empty()) return false;
        target = value;
        return true;
      },
      [&target] { return target; });
}

Row millis(std::string name, std::string metavar, std::string help,
           sim::Time& target, std::int64_t lo_ms, std::int64_t hi_ms) {
  return spec(
      std::move(name), std::move(metavar), std::move(help),
      interval(to_text(lo_ms), to_text(hi_ms), false),
      [&target, lo_ms, hi_ms](std::string_view text) {
        std::int64_t ms = 0;
        const bool in = parse_number(text, ms) && lo_ms <= ms && ms <= hi_ms;
        if (in) target = sim::millis(ms);
        return in;
      },
      [&target] { return to_text(target / sim::millis(1)); });
}

Row required(Row row) {
  row.required = true;
  return row;
}

}  // namespace coeff::cli
