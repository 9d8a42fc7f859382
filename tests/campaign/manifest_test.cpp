// Manifest roundtrip + rejection tests: the write-ahead identity record
// must survive a rename-based rewrite exactly and refuse anything torn,
// tampered, or from a different format version.
#include "campaign/manifest.hpp"

#include <gtest/gtest.h>

#include <string>

#include "campaign/checkpoint.hpp"

namespace coeff::campaign {
namespace {

CampaignManifest sample() {
  CampaignManifest manifest;
  manifest.name = "nightly";
  manifest.seed = 1234567890123ULL;
  manifest.cells = 5000;
  manifest.shards = 8;
  manifest.isolation = Isolation::kThread;
  manifest.watchdog_ms = 12000;
  manifest.max_attempts = 3;
  manifest.backoff_base_ms = 150;
  manifest.distribution.min_nodes = 4;
  manifest.distribution.max_nodes = 32;
  manifest.distribution.min_util = 0.2;
  manifest.distribution.max_util = 0.55;
  manifest.distribution.schemes = {core::SchemeKind::kCoEfficient,
                                   core::SchemeKind::kHosa};
  manifest.distribution.window_ms = 250;
  return manifest;
}

TEST(Manifest, RendersAndParsesRoundTrip) {
  const CampaignManifest original = sample();
  const ManifestLoad load = parse_manifest(render_manifest(original));
  ASSERT_TRUE(load.ok) << load.error;
  const CampaignManifest& m = load.manifest;
  EXPECT_EQ(m.name, original.name);
  EXPECT_EQ(m.seed, original.seed);
  EXPECT_EQ(m.cells, original.cells);
  EXPECT_EQ(m.shards, original.shards);
  EXPECT_EQ(m.isolation, original.isolation);
  EXPECT_EQ(m.watchdog_ms, original.watchdog_ms);
  EXPECT_EQ(m.max_attempts, original.max_attempts);
  EXPECT_EQ(m.backoff_base_ms, original.backoff_base_ms);
  EXPECT_EQ(m.distribution.min_nodes, original.distribution.min_nodes);
  EXPECT_EQ(m.distribution.max_nodes, original.distribution.max_nodes);
  EXPECT_DOUBLE_EQ(m.distribution.min_util, original.distribution.min_util);
  EXPECT_DOUBLE_EQ(m.distribution.max_util, original.distribution.max_util);
  EXPECT_EQ(m.distribution.schemes, original.distribution.schemes);
  EXPECT_EQ(m.distribution.window_ms, original.distribution.window_ms);
  // Render is canonical: a reparse renders byte-identically.
  EXPECT_EQ(render_manifest(m), render_manifest(original));
}

TEST(Manifest, DoublesRoundTripExactly) {
  // resume regenerates every cell from the stored distribution, so a
  // rounded double would draw a different population.
  CampaignManifest original = sample();
  original.distribution.min_util = 0.123456789012345;
  original.distribution.max_util = 0.678901234567891;
  original.distribution.min_log10_ber = -7.12345678901234;
  original.distribution.max_log10_ber = -4.98765432109876;
  const ManifestLoad load = parse_manifest(render_manifest(original));
  ASSERT_TRUE(load.ok) << load.error;
  const ScenarioDistribution& d = load.manifest.distribution;
  EXPECT_EQ(d.min_util, original.distribution.min_util);
  EXPECT_EQ(d.max_util, original.distribution.max_util);
  EXPECT_EQ(d.min_log10_ber, original.distribution.min_log10_ber);
  EXPECT_EQ(d.max_log10_ber, original.distribution.max_log10_ber);
  EXPECT_TRUE(load.manifest == original);
}

TEST(Manifest, RejectsBitFlipAnywhere) {
  const std::string bytes = render_manifest(sample());
  // Every sampled flip lands in either the CRC-protected body or the
  // trailer itself; none may parse.
  for (std::size_t i = 0; i < bytes.size(); i += 7) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x20);
    EXPECT_FALSE(parse_manifest(mutated).ok) << "flip at byte " << i;
  }
}

TEST(Manifest, RejectsTruncation) {
  const std::string bytes = render_manifest(sample());
  for (const std::size_t cut : {2u, 8u, 30u}) {
    EXPECT_FALSE(parse_manifest(bytes.substr(0, bytes.size() - cut)).ok)
        << "cut " << cut;
  }
}

TEST(Manifest, RejectsUnknownKeysAndVersions) {
  CampaignManifest manifest = sample();
  std::string bytes = render_manifest(manifest);
  // Unknown key, re-sealed with a fresh CRC so only the schema differs.
  const std::size_t trailer = bytes.rfind("#crc32=");
  std::string body = bytes.substr(0, trailer) + "mystery_key=1\n";
  char crc_line[24];
  std::snprintf(crc_line, sizeof crc_line, "#crc32=%08X", crc32(body));
  EXPECT_FALSE(parse_manifest(body + crc_line + "\n").ok);

  std::string v2 = "coeffcamp-manifest v2\n";
  std::snprintf(crc_line, sizeof crc_line, "#crc32=%08X", crc32(v2));
  EXPECT_FALSE(parse_manifest(v2 + crc_line + "\n").ok);
}

TEST(Manifest, ValidateRejectsNonsense) {
  CampaignManifest manifest = sample();
  manifest.cells = 0;
  EXPECT_THROW(manifest.validate(), std::invalid_argument);
  manifest = sample();
  manifest.shards = 0;
  EXPECT_THROW(manifest.validate(), std::invalid_argument);
  manifest = sample();
  manifest.status = "sideways";
  EXPECT_THROW(manifest.validate(), std::invalid_argument);
  manifest = sample();
  manifest.distribution.min_util = 0.9;  // > max_util
  EXPECT_THROW(manifest.validate(), std::invalid_argument);
  manifest = sample();
  manifest.name = "a\nb";  // parse_manifest reads line by line
  EXPECT_THROW(manifest.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace coeff::campaign
