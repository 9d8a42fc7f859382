// Crash-safe per-shard checkpoint files (DESIGN.md §13).
//
// A checkpoint is the shard's write-ahead log: one CRC32-guarded text
// record per state transition, appended and fsync'd before the
// transition is acted on. Records that may become durable together
// share one write and one fsync: the runner appends cell k's done
// record with cell k+1's intent. The file is created atomically (tmp +
// fsync + rename + directory fsync) with a versioned header record,
// then only ever appended to — so the sole failure mode a `kill -9` can
// leave behind is a torn *tail* record, which the loader detects by CRC
// and drops cleanly. A bad CRC anywhere before the tail is real
// corruption and is reported as such, never silently skipped.
//
// Record grammar (one line each, `payload#crc32hex\n`):
//   coeffcamp-ckpt v1 shard=S shards=N seed=U cells=C   header
//   I <cell> <attempt>    intent: about to run <cell> (attempt is 1-based)
//   D <cell>              done: result row for <cell> is on disk
//   Q <cell> <attempts> <reason>   quarantined poison cell
//   G <reason>            degraded: result detail shed (e.g. disk full)
//
// The intent/done pair brackets the unit of work: a cell with a
// dangling intent is exactly the cell that was in flight when the
// worker died, and the count of its intents is the attempt budget
// already spent — both facts the watchdog/retry machinery needs, both
// reconstructible from the file alone after any crash.
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
/// the header parsed and no record before the tail was corrupt; a torn
/// tail alone (the expected kill -9 residue) keeps ok == true and sets
/// `recovered_torn_tail`.
struct CheckpointLoad {
  bool ok = false;
  std::string error;
  CheckpointHeader header;
  std::vector<CheckpointRecord> records;
  bool recovered_torn_tail = false;
  std::size_t torn_bytes = 0;        ///< bytes dropped from the tail
  std::int64_t bad_record_line = -1; ///< 1-based line of mid-file corruption
};

/// Parse checkpoint bytes (fuzz-hardened: never throws on any input).
[[nodiscard]] CheckpointLoad parse_checkpoint(std::string_view bytes);

/// Load + parse `path`. A missing file is ok == false with an error.
[[nodiscard]] CheckpointLoad load_checkpoint(const std::string& path);

/// Append-only checkpoint writer. Creation goes through the atomic
/// write path (header-only file appears fully formed or not at all);
/// each append is one write, fsync'd when `durable` is set. All write
/// failures are reported through the return value, never thrown: the
/// runner's disk-full degradation depends on surviving them.
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

  /// Append `records` in order with one write and one fsync (when
  /// durable). A kill mid-write leaves a prefix of them plus at most
  /// one torn record, exactly as appending them one by one could.
  bool append(std::span<const CheckpointRecord> records);

  void close();

 private:
  int fd_ = -1;
  bool durable_ = true;
};

}  // namespace coeff::campaign
