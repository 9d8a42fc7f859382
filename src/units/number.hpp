// The one reader and exact writer of numbers as text: flags, campaign
// files, message CSVs, mode-policy specs and environment hooks.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace coeff::units {

/// True iff all of `text` is a number that fits `out` (a finite one, for
/// a real); `out` is untouched otherwise. std::from_chars' grammar, so
/// whitespace, '+', hex and a '-' on an unsigned type are errors. An
/// integer is at most 20 characters (the longest 64-bit one) and a real
/// at most 64: zero-padding that no writer emits is an error too.
template <class T>
[[nodiscard]] bool parse_number(std::string_view text, T& out) {
  if (text.size() > (std::is_floating_point_v<T> ? 64U : 20U)) return false;
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return false;
  }
  out = value;
  return true;
}

/// parse_number for a count kept in a signed `out`: read as unsigned, so
/// "-0" is an error just as "-1" is.
template <class T>
[[nodiscard]] bool parse_count(std::string_view text, T& out) {
  std::uint64_t wide = 0;
  if (!parse_number(text, wide) ||
      wide > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  out = static_cast<T>(wide);
  return true;
}

/// The shortest text parse_number reads back as exactly `value`.
template <class T>
[[nodiscard]] std::string to_text(T value) {
  if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    return {buf, std::to_chars(buf, buf + sizeof buf, value).ptr};
  } else {
    return std::to_string(value);
  }
}

}  // namespace coeff::units
