// Write-ahead campaign manifest (DESIGN.md §13).
//
// The manifest is the campaign's identity record: seed, cell count,
// shard layout, isolation mode, retry policy and the full scenario
// distribution — everything `resume` needs to regenerate the identical
// population with zero CLI arguments. It is written *before* any shard
// starts (write-ahead: the manifest names every checkpoint/result file
// that may ever exist) and rewritten only through the atomic
// tmp+fsync+rename path, so no crash at any instant can leave a
// half-written manifest. The final line carries a CRC32 of everything
// above it; parsing is fuzz-hardened and never throws.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "campaign/scenario.hpp"

namespace coeff::campaign {

/// How shards run: always one forked worker per shard, under the
/// supervisor's watchdog and retry. The one-value enum stays because
/// every manifest carries an `isolation=process` line (existing
/// campaigns must keep loading byte for byte, and the report prints
/// the word), and the benchmark harness sets the field.
enum class Isolation : std::uint8_t {
  kProcess,
};

[[nodiscard]] const char* to_string(Isolation isolation);

struct CampaignManifest {
  int version = 1;
  std::string name = "campaign";
  std::uint64_t seed = 42;
  std::int64_t cells = 0;
  int shards = 1;
  Isolation isolation = Isolation::kProcess;
  /// Per-cell watchdog budget; a cell exceeding it gets its shard
  /// killed and the cell retried.
  std::int64_t watchdog_ms = 30'000;
  /// Attempts before a cell is quarantined as poison (>= 1).
  int max_attempts = 2;
  /// Base of the exponential retry backoff (doubles per attempt).
  std::int64_t backoff_base_ms = 200;
  ScenarioDistribution distribution;
  /// "running" | "complete" | "degraded" (completed but some result
  /// detail was shed on write failure).
  std::string status = "running";

  /// Throws std::invalid_argument on inconsistent settings.
  void validate() const;

  /// Field by field; parse_manifest(render_manifest(m)) == m.
  bool operator==(const CampaignManifest&) const = default;
};

[[nodiscard]] std::string render_manifest(const CampaignManifest& manifest);

struct ManifestLoad {
  bool ok = false;
  std::string error;
  CampaignManifest manifest;
};

/// Parse manifest bytes. Never throws, rejects bad CRC/version/fields.
[[nodiscard]] ManifestLoad parse_manifest(std::string_view bytes);
[[nodiscard]] ManifestLoad load_manifest(const std::string& path);

// --- Campaign directory layout ----------------------------------------
[[nodiscard]] std::string manifest_path(const std::string& dir);
[[nodiscard]] std::string lock_path(const std::string& dir);
[[nodiscard]] std::string shard_checkpoint_path(const std::string& dir,
                                                int shard);
[[nodiscard]] std::string shard_results_path(const std::string& dir,
                                             int shard);

/// Durably (re)write dir/manifest.coeffcamp via the atomic path.
bool write_manifest(const std::string& dir, const CampaignManifest& manifest,
                    std::string* error = nullptr);

}  // namespace coeff::campaign
