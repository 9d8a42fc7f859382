// Crash-safe per-shard checkpoint files (DESIGN.md §13).
//
// A checkpoint is the shard's write-ahead log: one CRC32-guarded text
// record per state transition. The file is created atomically (tmp +
// fsync + rename + directory fsync) with a versioned header record,
// then only ever appended to. The worker writes its records without
// fsync and commits them as a group: it fsyncs the shard's result rows,
// then this file, then appends a commit record naming the two lengths
// those fsyncs made durable. A kill -9 loses no written byte; a machine
// crash may lose any unsynced page, in any order, but never a byte
// before the last commit. So damage (a line without its newline or
// whose CRC fails) past the last commit record is a torn tail, which
// the loader drops cleanly, and damage before it is real corruption,
// reported as such and never silently skipped.
//
// Record grammar (one line each, `payload#crc32hex\n`):
//   coeffcamp-ckpt v1 shard=S shards=N seed=U cells=C   header
//   I <cell> <attempt>    intent: about to run <cell> (attempt is 1-based)
//   D <cell>              done: result row for <cell> is written
//   Q <cell> <attempts> <reason>   quarantined poison cell
//   G <reason>            degraded: result detail shed (e.g. disk full)
//   C <bytes> <row_bytes> commit: this file's first <bytes> (everything
//                         before this record) and the rows' first
//                         <row_bytes> are durable
//
// The intent/done pair brackets the unit of work: a cell with a
// dangling intent is exactly the cell that was in flight when the
// worker died, and the count of its intents is the attempt budget
// already spent — both facts the watchdog/retry machinery needs, both
// reconstructible from the file alone after any crash. A done record
// past the last commit is a hint: it counts only if its row survived.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace coeff::campaign {

/// IEEE CRC-32 (the zlib polynomial) over `data`.
[[nodiscard]] std::uint32_t crc32(std::string_view data);

/// crc32(data) as the 8 uppercase hex digits that sealed records and the
/// manifest trailer carry.
[[nodiscard]] std::string crc32_hex(std::string_view data);

/// Append `#crc32hex` to a record payload (no trailing newline).
[[nodiscard]] std::string seal_record(std::string_view payload);

/// Verify + strip the `#crc32hex` suffix; nullopt on any mismatch.
[[nodiscard]] std::optional<std::string_view> unseal_record(
    std::string_view line);

/// Write all of `data` to `fd`, retrying interrupted writes; false on
/// any other error.
bool write_all(int fd, std::string_view data);

/// Durably replace `path` with `contents`: write `path.tmp`, fsync,
/// rename over `path`, fsync the parent directory. Returns false (with
/// `error` set when non-null) instead of throwing — callers on the
/// degradation path must be able to keep going.
bool atomic_write_file(const std::string& path, std::string_view contents,
                       std::string* error = nullptr);

/// Read a whole file; nullopt if it cannot be opened.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

enum class CheckpointRecordKind : std::uint8_t {
  kIntent,
  kDone,
  kQuarantine,
  kDegrade,
};

struct CheckpointRecord {
  CheckpointRecordKind kind = CheckpointRecordKind::kIntent;
  std::int64_t cell = -1;   ///< kIntent/kDone/kQuarantine
  int attempt = 0;          ///< kIntent: 1-based; kQuarantine: attempts spent
  std::string reason;       ///< kQuarantine/kDegrade detail (no spaces)
};

struct CheckpointHeader {
  int version = 1;
  int shard = 0;
  int shards = 1;
  std::uint64_t campaign_seed = 0;
  std::int64_t cells = 0;
};

[[nodiscard]] std::string render_record(const CheckpointRecord& record);
[[nodiscard]] std::string render_header(const CheckpointHeader& header);

/// Everything load/parse learned about one checkpoint file. `ok` means
/// the header parsed and nothing before the last commit was corrupt; a
/// torn tail alone (the expected crash residue) keeps ok == true and
/// sets `recovered_torn_tail`. Commit records are not in `records`.
struct CheckpointLoad {
  bool ok = false;
  std::string error;
  CheckpointHeader header;
  std::vector<CheckpointRecord> records;
  /// The last commit record's claim: `records[0, committed_records)`
  /// and the rows' first `committed_row_bytes` are durable. Both 0 when
  /// the file has no commit record (then only its header is).
  std::size_t committed_records = 0;
  std::uint64_t committed_row_bytes = 0;
  bool recovered_torn_tail = false;
  std::size_t torn_bytes = 0;        ///< bytes dropped from the tail
  std::int64_t bad_record_line = -1; ///< 1-based line of mid-file corruption
};

/// Parse checkpoint bytes (fuzz-hardened: never throws on any input).
/// Damage is a line without its newline or whose CRC fails. The first
/// damage starts the torn tail, unless a valid commit record follows it
/// (then it is corruption). A sealed line that does not parse, or a
/// commit naming a length other than its own offset, is corruption
/// unless it is the last line.
[[nodiscard]] CheckpointLoad parse_checkpoint(std::string_view bytes);

/// Load + parse `path`. A missing file is ok == false with an error.
[[nodiscard]] CheckpointLoad load_checkpoint(const std::string& path);

/// Append-only checkpoint writer. Creation goes through the atomic
/// write path (header-only file appears fully formed or not at all).
/// `append` fsyncs each write when `durable` is set; `write` never
/// does, and `commit` makes everything written so far durable as one
/// group. All write failures are reported through the return value,
/// never thrown: the runner's disk-full degradation depends on
/// surviving them.
class CheckpointWriter {
 public:
  CheckpointWriter() = default;
  ~CheckpointWriter();
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Create the file (atomic, header record) if absent, else open it
  /// for append after verifying the existing header matches.
  bool open(const std::string& path, const CheckpointHeader& header,
            bool durable, std::string* error = nullptr);

  /// Append one sealed record (+fsync when durable). False = IO error.
  bool append(const CheckpointRecord& record);

  /// Append `records` in order with one write and no fsync; the next
  /// commit() makes them durable. A kill mid-write leaves a prefix of
  /// them plus at most one torn record, exactly as appending them one
  /// by one could.
  bool write(std::span<const CheckpointRecord> records);

  /// Group commit: fsync (when durable), then append `C <bytes>
  /// <row_bytes>` naming the file's length before the record. Call it
  /// only once the rows' first `row_bytes` are durable. False on a
  /// failed fsync (no commit record is written) or write.
  bool commit(std::uint64_t row_bytes);

  void close();

 private:
  int fd_ = -1;
  bool durable_ = true;
};

}  // namespace coeff::campaign
