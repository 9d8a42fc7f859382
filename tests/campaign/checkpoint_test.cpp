// Durability unit tests for the campaign checkpoint layer: atomic file
// replacement, CRC-sealed records, torn-tail recovery vs mid-file
// corruption, and writer reopen semantics.
#include "campaign/checkpoint.hpp"

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace coeff::campaign {
namespace {

/// Fresh per-test scratch path under the build tree.
std::string scratch(const char* name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string path = std::string("ckpt_") + info->name() + "_" + name;
  (void)::remove(path.c_str());
  return path;
}

CheckpointHeader test_header() {
  CheckpointHeader header;
  header.shard = 1;
  header.shards = 4;
  header.campaign_seed = 99;
  header.cells = 40;
  return header;
}

TEST(AtomicWrite, ReplacesContentCompletely) {
  const std::string path = scratch("file");
  ASSERT_TRUE(atomic_write_file(path, "first contents\n"));
  ASSERT_TRUE(atomic_write_file(path, "second\n"));
  EXPECT_EQ(read_file(path).value_or(""), "second\n");
  // The temp file used for staging must not linger.
  struct stat st{};
  EXPECT_NE(::stat((path + ".tmp").c_str(), &st), 0);
  (void)::remove(path.c_str());
}

TEST(AtomicWrite, FailureLeavesOriginalUntouched) {
  std::string error;
  EXPECT_FALSE(atomic_write_file("no_such_dir/x/y", "data", &error));
  EXPECT_FALSE(error.empty());
}

TEST(RecordSeal, RoundTripsAndRejectsTampering) {
  const std::string sealed = seal_record("I 7 2");
  const auto unsealed = unseal_record(sealed);
  ASSERT_TRUE(unsealed.has_value());
  EXPECT_EQ(*unsealed, "I 7 2");
  std::string tampered = sealed;
  tampered[0] = 'D';
  EXPECT_FALSE(unseal_record(tampered).has_value());
  EXPECT_FALSE(unseal_record("no-crc-separator").has_value());
}

TEST(CheckpointWriter, AppendsAndReloads) {
  const std::string path = scratch("log");
  CheckpointWriter writer;
  ASSERT_TRUE(writer.open(path, test_header(), /*durable=*/false));
  CheckpointRecord intent;
  intent.kind = CheckpointRecordKind::kIntent;
  intent.cell = 5;
  intent.attempt = 1;
  ASSERT_TRUE(writer.append(intent));
  CheckpointRecord done;
  done.kind = CheckpointRecordKind::kDone;
  done.cell = 5;
  ASSERT_TRUE(writer.append(done));
  // Several records in one write, as the runner writes a done record
  // with the next cell's intent.
  std::vector<CheckpointRecord> grouped(2);
  grouped[0].kind = CheckpointRecordKind::kIntent;
  grouped[0].cell = 9;
  grouped[0].attempt = 2;
  grouped[1].kind = CheckpointRecordKind::kDone;
  grouped[1].cell = 9;
  ASSERT_TRUE(writer.write(grouped));
  writer.close();

  const CheckpointLoad load = load_checkpoint(path);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.header.shard, 1);
  EXPECT_EQ(load.header.cells, 40);
  ASSERT_EQ(load.records.size(), 4u);
  EXPECT_EQ(load.records[0].kind, CheckpointRecordKind::kIntent);
  EXPECT_EQ(load.records[0].cell, 5);
  EXPECT_EQ(load.records[0].attempt, 1);
  EXPECT_EQ(load.records[1].kind, CheckpointRecordKind::kDone);
  EXPECT_EQ(load.records[2].kind, CheckpointRecordKind::kIntent);
  EXPECT_EQ(load.records[2].cell, 9);
  EXPECT_EQ(load.records[2].attempt, 2);
  EXPECT_EQ(load.records[3].kind, CheckpointRecordKind::kDone);
  EXPECT_EQ(load.records[3].cell, 9);
  EXPECT_FALSE(load.recovered_torn_tail);
  (void)::remove(path.c_str());
}

TEST(CheckpointWriter, ReopenRejectsMismatchedIdentity) {
  const std::string path = scratch("log");
  {
    CheckpointWriter writer;
    ASSERT_TRUE(writer.open(path, test_header(), false));
  }
  CheckpointHeader other = test_header();
  other.campaign_seed = 100;
  CheckpointWriter writer;
  std::string error;
  EXPECT_FALSE(writer.open(path, other, false, &error));
  EXPECT_FALSE(error.empty());
  (void)::remove(path.c_str());
}

/// The kill -9 signature: the final record is cut mid-bytes. The loader
/// must keep every complete record, flag the torn tail, and stay ok.
TEST(CheckpointTorn, TruncateMidRecordRecoversCleanly) {
  const std::string path = scratch("log");
  {
    CheckpointWriter writer;
    ASSERT_TRUE(writer.open(path, test_header(), false));
    for (std::int64_t cell : {1, 5, 9}) {
      CheckpointRecord record;
      record.kind = CheckpointRecordKind::kIntent;
      record.cell = cell;
      record.attempt = 1;
      ASSERT_TRUE(writer.append(record));
    }
  }
  const std::string full = read_file(path).value();
  for (std::size_t cut = 1; cut < 12; ++cut) {
    ASSERT_TRUE(atomic_write_file(path, full.substr(0, full.size() - cut)));
    const CheckpointLoad load = load_checkpoint(path);
    ASSERT_TRUE(load.ok) << "cut=" << cut << ": " << load.error;
    EXPECT_TRUE(load.recovered_torn_tail) << "cut=" << cut;
    EXPECT_EQ(load.records.size(), 2u) << "cut=" << cut;
    EXPECT_GT(load.torn_bytes, 0u) << "cut=" << cut;
  }
  (void)::remove(path.c_str());
}

/// A kill inside a grouped append (cell 5's done record written with
/// cell 9's intent) leaves a state that two single appends could also
/// leave: a cut inside the intent keeps the done record, a cut inside
/// the done record drops both, and the load stays ok either way.
TEST(CheckpointTorn, TornGroupedAppendKeepsTheWholeRecords) {
  const std::string path = scratch("log");
  std::vector<CheckpointRecord> grouped(2);
  grouped[0].kind = CheckpointRecordKind::kDone;
  grouped[0].cell = 5;
  grouped[1].kind = CheckpointRecordKind::kIntent;
  grouped[1].cell = 9;
  grouped[1].attempt = 1;
  {
    CheckpointWriter writer;
    ASSERT_TRUE(writer.open(path, test_header(), false));
    CheckpointRecord intent;
    intent.kind = CheckpointRecordKind::kIntent;
    intent.cell = 5;
    intent.attempt = 1;
    ASSERT_TRUE(writer.append(intent));
    ASSERT_TRUE(writer.write(grouped));
  }
  const std::string full = read_file(path).value();
  const std::size_t intent_bytes = render_record(grouped[1]).size() + 1;
  const std::size_t done_bytes = render_record(grouped[0]).size() + 1;
  for (std::size_t cut = 1; cut < intent_bytes + done_bytes; ++cut) {
    if (cut == intent_bytes) continue;  // a whole record, nothing torn
    ASSERT_TRUE(atomic_write_file(path, full.substr(0, full.size() - cut)));
    const CheckpointLoad load = load_checkpoint(path);
    ASSERT_TRUE(load.ok) << "cut=" << cut << ": " << load.error;
    EXPECT_TRUE(load.recovered_torn_tail) << "cut=" << cut;
    if (cut < intent_bytes) {
      ASSERT_EQ(load.records.size(), 2u) << "cut=" << cut;
      EXPECT_EQ(load.records[1].kind, CheckpointRecordKind::kDone);
      EXPECT_EQ(load.records[1].cell, 5);
    } else {
      ASSERT_EQ(load.records.size(), 1u) << "cut=" << cut;
      EXPECT_EQ(load.records[0].kind, CheckpointRecordKind::kIntent);
    }
  }
  (void)::remove(path.c_str());
}

/// Corruption *before* the last commit is not crash residue — it must be
/// an error, never silently skipped.
TEST(CheckpointTorn, MidFileCorruptionIsAnError) {
  const std::string path = scratch("log");
  {
    CheckpointWriter writer;
    ASSERT_TRUE(writer.open(path, test_header(), false));
    for (std::int64_t cell : {1, 5}) {
      CheckpointRecord record;
      record.kind = CheckpointRecordKind::kDone;
      record.cell = cell;
      ASSERT_TRUE(writer.append(record));
    }
    ASSERT_TRUE(writer.commit(0));
  }
  std::string bytes = read_file(path).value();
  // Flip a byte inside the *first* record line (after the header line).
  const std::size_t first_record = bytes.find('\n') + 3;
  bytes[first_record] = bytes[first_record] == 'X' ? 'Y' : 'X';
  ASSERT_TRUE(atomic_write_file(path, bytes));
  const CheckpointLoad load = load_checkpoint(path);
  EXPECT_FALSE(load.ok);
  EXPECT_GT(load.bad_record_line, 0);
  (void)::remove(path.c_str());
}

std::vector<CheckpointRecord> intent_done(std::int64_t cell) {
  std::vector<CheckpointRecord> records(2);
  records[0].kind = CheckpointRecordKind::kIntent;
  records[0].cell = cell;
  records[0].attempt = 1;
  records[1].kind = CheckpointRecordKind::kDone;
  records[1].cell = cell;
  return records;
}

/// A commit record names the length before itself and the row length it
/// was given; the loader reports the records it covers.
TEST(CheckpointWriter, CommitNamesTheDurableLengths) {
  const std::string path = scratch("log");
  std::size_t committed_at = 0;
  {
    CheckpointWriter writer;
    ASSERT_TRUE(writer.open(path, test_header(), false));
    ASSERT_TRUE(writer.write(intent_done(1)));
    committed_at = read_file(path).value().size();
    ASSERT_TRUE(writer.commit(1234));
    ASSERT_TRUE(writer.write(intent_done(5)));
  }
  const std::string bytes = read_file(path).value();
  EXPECT_EQ(bytes.substr(committed_at, bytes.find('#', committed_at) -
                                           committed_at),
            "C " + std::to_string(committed_at) + " 1234");
  const CheckpointLoad load = parse_checkpoint(bytes);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_EQ(load.records.size(), 4u);  // the commit is not a record
  EXPECT_EQ(load.committed_records, 2u);
  EXPECT_EQ(load.committed_row_bytes, 1234u);
  EXPECT_FALSE(load.recovered_torn_tail);
  (void)::remove(path.c_str());
}

/// A machine crash may keep any subset of the pages written after the
/// last commit: a lost page in the middle of the tail reads as zeros
/// while later records survive. All of it past the first damage is the
/// torn tail.
TEST(CheckpointTorn, DamagePastTheLastCommitIsATornTail) {
  const std::string path = scratch("log");
  {
    CheckpointWriter writer;
    ASSERT_TRUE(writer.open(path, test_header(), false));
    ASSERT_TRUE(writer.write(intent_done(1)));
    ASSERT_TRUE(writer.commit(77));
    ASSERT_TRUE(writer.write(intent_done(5)));
    ASSERT_TRUE(writer.write(intent_done(9)));
  }
  std::string bytes = read_file(path).value();
  // Zero cell 5's done record; cell 9's records survive after it.
  const std::size_t done5 = bytes.find("D 5#");
  ASSERT_NE(done5, std::string::npos);
  for (std::size_t i = done5; i < done5 + 6; ++i) bytes[i] = '\0';
  const CheckpointLoad load = parse_checkpoint(bytes);
  ASSERT_TRUE(load.ok) << load.error;
  EXPECT_TRUE(load.recovered_torn_tail);
  EXPECT_EQ(load.torn_bytes, bytes.size() - done5);
  ASSERT_EQ(load.records.size(), 3u);  // I 1, D 1, I 5
  EXPECT_EQ(load.records[2].cell, 5);
  EXPECT_EQ(load.committed_records, 2u);
  EXPECT_EQ(load.committed_row_bytes, 77u);
  (void)::remove(path.c_str());
}

/// Nothing a crash leaves puts damage before a valid commit, nor makes
/// a commit name a length other than its own offset: both are
/// corruption. A sealed line the writer never writes is corruption
/// unless it is the last line.
TEST(CheckpointParse, MisplacedCommitsAndSealedGarbageAreCorruption) {
  const std::string header = render_header(test_header()) + "\n";
  const std::string intent = render_record(intent_done(3)[0]) + "\n";
  const auto commit_at = [](std::size_t offset) {
    return seal_record("C " + std::to_string(offset) + " 0") + "\n";
  };
  const std::string good =
      header + intent + commit_at(header.size() + intent.size());
  EXPECT_TRUE(parse_checkpoint(good).ok);
  std::string damaged = good;
  damaged[header.size() + 2] = 'X';  // inside the intent, before the commit
  EXPECT_FALSE(parse_checkpoint(damaged).ok);
  EXPECT_EQ(parse_checkpoint(damaged).bad_record_line, 2);
  const std::string wrong_length = header + intent + commit_at(7) + intent;
  EXPECT_FALSE(parse_checkpoint(wrong_length).ok);
  const CheckpointLoad last = parse_checkpoint(header + intent + commit_at(7));
  EXPECT_TRUE(last.ok);
  EXPECT_TRUE(last.recovered_torn_tail);
  EXPECT_EQ(last.committed_records, 0u);
  EXPECT_FALSE(parse_checkpoint(header + seal_record("D x") + "\n" + intent).ok);
}

TEST(CheckpointParse, GarbageInputsNeverThrow) {
  EXPECT_FALSE(parse_checkpoint("").ok);
  EXPECT_FALSE(parse_checkpoint("not a checkpoint\n").ok);
  EXPECT_FALSE(parse_checkpoint(std::string(4096, '\xff')).ok);
  EXPECT_FALSE(parse_checkpoint("coeffcamp-ckpt v9 shard=0").ok);
  EXPECT_FALSE(load_checkpoint("definitely_missing_file").ok);
}

}  // namespace
}  // namespace coeff::campaign
