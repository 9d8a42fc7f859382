// libFuzzer harness for the campaign durability parsers.
//
// Contract under test: parse_manifest, parse_checkpoint and parse_row
// never throw and never trip a sanitizer on ANY byte sequence — they
// are fed files that a kill -9 may have torn at an arbitrary byte, or
// that a sick disk may have scrambled outright. Acceptance has its own
// invariant: anything parse_manifest accepts must render to bytes that
// parse back to an equal manifest, field by field (the rewrite on
// campaign completion and every resume depend on that), and an accepted
// result row must render to bytes that parse and render again to the
// same bytes.
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "campaign/checkpoint.hpp"
#include "campaign/manifest.hpp"
#include "campaign/report.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);

  const auto manifest = coeff::campaign::parse_manifest(bytes);
  if (manifest.ok) {
    const auto again = coeff::campaign::parse_manifest(
        coeff::campaign::render_manifest(manifest.manifest));
    if (!again.ok || !(again.manifest == manifest.manifest)) {
      __builtin_trap();  // accepted manifest must round-trip exactly
    }
  }

  const auto checkpoint = coeff::campaign::parse_checkpoint(bytes);
  (void)checkpoint;

  // Result rows are single lines; feed each line of the input.
  std::size_t start = 0;
  while (start <= bytes.size()) {
    auto newline = bytes.find('\n', start);
    if (newline == std::string_view::npos) newline = bytes.size();
    const auto row =
        coeff::campaign::parse_row(bytes.substr(start, newline - start));
    if (row.has_value()) {
      const std::string rendered = coeff::campaign::render_row(*row);
      const auto again = coeff::campaign::parse_row(rendered);
      if (!again.has_value() ||
          coeff::campaign::render_row(*again) != rendered) {
        __builtin_trap();  // accepted row must re-render byte for byte
      }
    }
    if (newline == bytes.size()) break;
    start = newline + 1;
  }
  return 0;
}
