#include "campaign/manifest.hpp"

#include <cstdio>
#include <stdexcept>

#include "campaign/checkpoint.hpp"
#include "units/number.hpp"

namespace coeff::campaign {

const char* to_string(Isolation /*isolation*/) { return "process"; }

void CampaignManifest::validate() const {
  auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("campaign: ") + what);
  };
  // parse_manifest reads the manifest line by line.
  require(name.find('\n') == std::string::npos,
          "name must not contain a newline");
  require(cells > 0, "campaign needs at least one cell");
  require(shards >= 1 && shards <= 4096, "shards must be in [1, 4096]");
  require(watchdog_ms > 0, "watchdog must be positive");
  require(max_attempts >= 1 && max_attempts <= 16,
          "max attempts must be in [1, 16]");
  require(backoff_base_ms >= 0, "backoff base must be non-negative");
  require(status == "running" || status == "complete" || status == "degraded",
          "unknown campaign status");
  distribution.validate();
}

std::string render_manifest(const CampaignManifest& manifest) {
  std::string body = "coeffcamp-manifest v1\n";
  auto kv = [&body](const char* key, const std::string& value) {
    body += key;
    body += '=';
    body += value;
    body += '\n';
  };
  kv("name", manifest.name);
  kv("seed", std::to_string(manifest.seed));
  kv("cells", std::to_string(manifest.cells));
  kv("shards", std::to_string(manifest.shards));
  kv("isolation", to_string(manifest.isolation));
  kv("watchdog_ms", std::to_string(manifest.watchdog_ms));
  kv("max_attempts", std::to_string(manifest.max_attempts));
  kv("backoff_base_ms", std::to_string(manifest.backoff_base_ms));
  const ScenarioDistribution& d = manifest.distribution;
  kv("min_nodes", std::to_string(d.min_nodes));
  kv("max_nodes", std::to_string(d.max_nodes));
  kv("min_statics", std::to_string(d.min_statics));
  kv("max_statics", std::to_string(d.max_statics));
  kv("max_dynamics", std::to_string(d.max_dynamics));
  // Exact: resume regenerates every cell from these values.
  kv("min_util", units::to_text(d.min_util));
  kv("max_util", units::to_text(d.max_util));
  kv("min_log10_ber", units::to_text(d.min_log10_ber));
  kv("max_log10_ber", units::to_text(d.max_log10_ber));
  kv("schemes", scheme_list(d.schemes));
  kv("window_ms", std::to_string(d.window_ms));
  // Written only when enabled: manifests of campaigns without the
  // mixed-criticality axis stay byte-identical to older builds.
  if (d.criticality) kv("criticality", "on");
  kv("status", manifest.status);
  return body + "#crc32=" + crc32_hex(body) + "\n";
}

ManifestLoad parse_manifest(std::string_view bytes) {
  ManifestLoad load;
  // Split off the CRC trailer first: the last non-empty line must be
  // "#crc32=XXXXXXXX" and must match everything before it.
  const auto trailer_at = bytes.rfind("#crc32=");
  if (trailer_at == std::string_view::npos) {
    load.error = "manifest: missing crc trailer";
    return load;
  }
  const std::string_view body = bytes.substr(0, trailer_at);
  std::string_view trailer = bytes.substr(trailer_at);
  if (!trailer.empty() && trailer.back() == '\n') trailer.remove_suffix(1);
  if (trailer.size() != 15 ||
      trailer.find_first_not_of("0123456789ABCDEF", 7) !=
          std::string_view::npos) {
    load.error = "manifest: malformed crc trailer";
    return load;
  }
  if (trailer.substr(7) != crc32_hex(body)) {
    load.error = "manifest: crc mismatch (torn or corrupt)";
    return load;
  }

  CampaignManifest& m = load.manifest;
  bool saw_magic = false;
  std::size_t start = 0;
  while (start < body.size()) {
    auto newline = body.find('\n', start);
    if (newline == std::string_view::npos) newline = body.size();
    const std::string line(body.substr(start, newline - start));
    start = newline + 1;
    if (line.empty()) continue;
    if (!saw_magic) {
      if (line != "coeffcamp-manifest v1") {
        load.error = "manifest: unsupported version or bad magic";
        return load;
      }
      saw_magic = true;
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      load.error = "manifest: malformed line '" + line + "'";
      return load;
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    ScenarioDistribution& d = m.distribution;
    bool ok = true;
    if (key == "name") {
      m.name = value;
    } else if (key == "seed") {
      ok = units::parse_count(value, m.seed);
    } else if (key == "cells") {
      ok = units::parse_count(value, m.cells);
    } else if (key == "shards") {
      ok = units::parse_count(value, m.shards);
    } else if (key == "isolation") {
      ok = value == "process";
    } else if (key == "watchdog_ms") {
      ok = units::parse_count(value, m.watchdog_ms);
    } else if (key == "max_attempts") {
      ok = units::parse_count(value, m.max_attempts);
    } else if (key == "backoff_base_ms") {
      ok = units::parse_count(value, m.backoff_base_ms);
    } else if (key == "min_nodes") {
      ok = units::parse_count(value, d.min_nodes);
    } else if (key == "max_nodes") {
      ok = units::parse_count(value, d.max_nodes);
    } else if (key == "min_statics") {
      ok = units::parse_count(value, d.min_statics);
    } else if (key == "max_statics") {
      ok = units::parse_count(value, d.max_statics);
    } else if (key == "max_dynamics") {
      ok = units::parse_count(value, d.max_dynamics);
    } else if (key == "min_util") {
      ok = units::parse_number(value, d.min_util);
    } else if (key == "max_util") {
      ok = units::parse_number(value, d.max_util);
    } else if (key == "min_log10_ber") {
      ok = units::parse_number(value, d.min_log10_ber);
    } else if (key == "max_log10_ber") {
      ok = units::parse_number(value, d.max_log10_ber);
    } else if (key == "schemes") {
      const auto schemes = parse_scheme_list(value);
      ok = schemes.has_value();
      if (ok) d.schemes = *schemes;
    } else if (key == "window_ms") {
      ok = units::parse_count(value, d.window_ms);
    } else if (key == "criticality") {
      if (value == "on") {
        d.criticality = true;
      } else if (value == "off") {
        d.criticality = false;
      } else {
        ok = false;
      }
    } else if (key == "status") {
      m.status = value;
    } else {
      // Unknown keys are an error: a manifest is not a place for
      // silent drift between writer and reader versions.
      ok = false;
    }
    if (!ok) {
      load.error = "manifest: bad field '" + key + "'";
      return load;
    }
  }
  if (!saw_magic) {
    load.error = "manifest: empty";
    return load;
  }
  try {
    m.validate();
  } catch (const std::exception& e) {
    load.error = std::string("manifest: ") + e.what();
    return load;
  }
  load.ok = true;
  return load;
}

ManifestLoad load_manifest(const std::string& path) {
  const auto bytes = read_file(path);
  if (!bytes.has_value()) {
    ManifestLoad load;
    load.error = "cannot read " + path;
    return load;
  }
  return parse_manifest(*bytes);
}

std::string manifest_path(const std::string& dir) {
  return dir + "/manifest.coeffcamp";
}

std::string lock_path(const std::string& dir) { return dir + "/.lock"; }

std::string shard_checkpoint_path(const std::string& dir, int shard) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "/shard-%04d.ckpt", shard);
  return dir + buf;
}

std::string shard_results_path(const std::string& dir, int shard) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "/shard-%04d.jsonl", shard);
  return dir + buf;
}

bool write_manifest(const std::string& dir, const CampaignManifest& manifest,
                    std::string* error) {
  return atomic_write_file(manifest_path(dir), render_manifest(manifest),
                           error);
}

}  // namespace coeff::campaign
