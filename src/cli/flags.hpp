// One flag grammar for every command-line surface. A Table lists one Row
// per flag (spelling, value placeholder, help line, accepted range and a
// typed binding) and drives both parse() and render_help(), so --help
// shows every flag with the range the parser enforces and the default
// read from the bound field.
//
// parse() is total: any token list yields the bound options, a help
// request or a one-line error; it never prints, exits or throws. Numbers
// go through units::parse_number: "10x", "abc", "", an overflow and a '-'
// on an unsigned value are errors, not silent zeros.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "units/number.hpp"

namespace coeff::cli {

struct Row {
  std::string name;     ///< "--ber"; without "--", a positional argument
  std::string metavar;  ///< value placeholder; empty = a switch
  std::string help;
  std::string range;  ///< accepted values: "in [0, 1]", "in {a|b}"
  /// Stores one value (a switch gets ""); false on a malformed or
  /// out-of-range one, which leaves the target untouched.
  std::function<bool(std::string_view)> bind;
  /// The target's value as a token `bind` accepts; "" = none to show.
  std::function<std::string()> show;
  bool required = false;
};

struct Table {
  std::string usage;  ///< "coeffctl lint [options]"
  std::string intro;
  std::vector<Row> rows;
};

struct Parse {
  bool help = false;  ///< --help or -h was given
  std::string error;  ///< one line without '\n'; empty = options bound
};

/// Binds `args` left to right (a repeated scalar keeps its last value, a
/// repeated spec accumulates); stops at the first error or --help/-h.
[[nodiscard]] Parse parse(const Table& table,
                          const std::vector<std::string>& args);
[[nodiscard]] std::string render_help(const Table& table);
/// main()'s front end: prints --help and returns 0, or prints
/// "PROG: ERROR" to stderr and returns 2; nullopt = options bound.
[[nodiscard]] std::optional<int> early_exit(
    const Table& table, std::string_view prog,
    const std::vector<std::string>& args);

using units::parse_number;
using units::to_text;

/// "in [lo, hi]", or "in (lo, hi]" when `lo_open`; hi "inf" is open.
[[nodiscard]] std::string interval(const std::string& lo,
                                   const std::string& hi, bool lo_open);

/// The largest millisecond count sim::millis() represents.
inline constexpr std::int64_t kMaxMillis =
    std::numeric_limits<std::int64_t>::max() / 1'000'000;

// --- Row factories: a flag's type is the factory that declares it ------

/// A structured value whose `bind` parses every field strictly.
[[nodiscard]] Row spec(std::string name, std::string metavar,
                       std::string help, std::string range,
                       std::function<bool(std::string_view)> bind,
                       std::function<std::string()> show = {});
[[nodiscard]] Row flag(std::string name, std::string help, bool& target);
[[nodiscard]] Row text(std::string name, std::string metavar,
                       std::string help, std::string& target,
                       bool non_empty = false);
/// Whole milliseconds in [lo_ms, hi_ms], stored as a sim::Time.
[[nodiscard]] Row millis(std::string name, std::string metavar,
                         std::string help, sim::Time& target,
                         std::int64_t lo_ms, std::int64_t hi_ms);
/// `row`, which parse() reports when it is missing.
[[nodiscard]] Row required(Row row);

/// A number in [lo, hi], or (lo, hi] when `lo_open`; an infinite real
/// `hi` leaves the range unbounded above.
template <class T>
[[nodiscard]] Row number(std::string name, std::string metavar,
                         std::string help, T& target, T lo, T hi,
                         bool lo_open = false) {
  return spec(
      std::move(name), std::move(metavar), std::move(help),
      interval(to_text(lo), to_text(hi), lo_open),
      [&target, lo, hi, lo_open](std::string_view text) {
        T v{};
        const bool in = parse_number(text, v) &&
                        (lo_open ? lo < v : lo <= v) && v <= hi;
        if (in) target = v;
        return in;
      },
      [&target] { return to_text(target); });
}

/// One of a fixed set of names, each mapped to a value of `target`;
/// --help shows the first name of the current value.
template <class E>
[[nodiscard]] Row choice(std::string name, std::string metavar,
                         std::string help, E& target,
                         std::vector<std::pair<std::string, E>> names) {
  std::string list;
  for (const auto& entry : names) {
    list += (list.empty() ? "" : "|") + entry.first;
  }
  return spec(
      std::move(name), std::move(metavar), std::move(help),
      "in {" + list + "}",
      [&target, names](std::string_view text) {
        for (const auto& [key, value] : names) {
          if (key != text) continue;
          target = value;
          return true;
        }
        return false;
      },
      [&target, names] {
        for (const auto& [key, value] : names) {
          if (value == target) return key;
        }
        return std::string();
      });
}

}  // namespace coeff::cli
