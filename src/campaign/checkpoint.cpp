#include "campaign/checkpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "units/number.hpp"

namespace coeff::campaign {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

void set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
}

std::string errno_string() { return std::strerror(errno); }

/// fsync the directory containing `path` so a just-renamed entry is
/// durable. Best-effort: some filesystems reject directory fsync.
void fsync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    (void)::fsync(fd);
    (void)::close(fd);
  }
}

/// Split on single spaces, no empty fields tolerated.
std::vector<std::string_view> split_fields(std::string_view payload) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= payload.size()) {
    const auto space = payload.find(' ', start);
    const auto end = space == std::string_view::npos ? payload.size() : space;
    out.push_back(payload.substr(start, end - start));
    if (space == std::string_view::npos) break;
    start = space + 1;
  }
  return out;
}

/// "key=value" field accessor; false if the prefix does not match.
bool field_value(std::string_view field, std::string_view key,
                 std::string_view& value) {
  if (field.size() <= key.size() + 1 || field.substr(0, key.size()) != key ||
      field[key.size()] != '=') {
    return false;
  }
  value = field.substr(key.size() + 1);
  return true;
}

bool parse_header_payload(std::string_view payload, CheckpointHeader& header) {
  const auto fields = split_fields(payload);
  if (fields.size() != 6 || fields[0] != "coeffcamp-ckpt" || fields[1] != "v1")
    return false;
  std::string_view value;
  if (!field_value(fields[2], "shard", value) ||
      !units::parse_count(value, header.shard) ||
      !field_value(fields[3], "shards", value) ||
      !units::parse_count(value, header.shards) || header.shards == 0 ||
      !field_value(fields[4], "seed", value) ||
      !units::parse_number(value, header.campaign_seed) ||
      !field_value(fields[5], "cells", value) ||
      !units::parse_count(value, header.cells))
    return false;
  header.version = 1;
  return header.shard < header.shards;
}

bool parse_record_payload(std::string_view payload, CheckpointRecord& record) {
  const auto fields = split_fields(payload);
  if (fields.empty()) return false;
  if (fields[0] == "I" && fields.size() == 3) {
    record.kind = CheckpointRecordKind::kIntent;
    return units::parse_count(fields[1], record.cell) &&
           units::parse_count(fields[2], record.attempt) &&
           record.attempt > 0;
  }
  if (fields[0] == "D" && fields.size() == 2) {
    record.kind = CheckpointRecordKind::kDone;
    return units::parse_count(fields[1], record.cell);
  }
  if (fields[0] == "Q" && fields.size() == 4) {
    record.kind = CheckpointRecordKind::kQuarantine;
    record.reason = std::string(fields[3]);
    return units::parse_count(fields[1], record.cell) &&
           units::parse_count(fields[2], record.attempt) &&
           record.attempt > 0;
  }
  if (fields[0] == "G" && fields.size() == 2) {
    record.kind = CheckpointRecordKind::kDegrade;
    record.cell = -1;
    record.reason = std::string(fields[1]);
    return true;
  }
  return false;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> kTable = make_crc_table();
  std::uint32_t crc = 0xFFFFFFFFU;
  for (const char ch : data) {
    crc = kTable[(crc ^ static_cast<unsigned char>(ch)) & 0xFFU] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFU;
}

std::string crc32_hex(std::string_view data) {
  char buf[9];
  std::snprintf(buf, sizeof buf, "%08" PRIX32, crc32(data));
  return buf;
}

std::string seal_record(std::string_view payload) {
  return std::string(payload) + "#" + crc32_hex(payload);
}

std::optional<std::string_view> unseal_record(std::string_view line) {
  // "#XXXXXXXX" suffix: 9 chars; only the CRC's own spelling matches.
  if (line.size() < 10) return std::nullopt;
  const std::size_t hash = line.size() - 9;
  const std::string_view payload = line.substr(0, hash);
  if (line[hash] != '#' || line.substr(hash + 1) != crc32_hex(payload)) {
    return std::nullopt;
  }
  return payload;
}

bool write_all(int fd, std::string_view data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  return true;
}

bool atomic_write_file(const std::string& path, std::string_view contents,
                       std::string* error) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    set_error(error, "open " + tmp + ": " + errno_string());
    return false;
  }
  if (!write_all(fd, contents)) {
    set_error(error, "write " + tmp + ": " + errno_string());
    (void)::close(fd);
    (void)::unlink(tmp.c_str());
    return false;
  }
  if (::fsync(fd) != 0) {
    set_error(error, "fsync " + tmp + ": " + errno_string());
    (void)::close(fd);
    (void)::unlink(tmp.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    set_error(error, "close " + tmp + ": " + errno_string());
    (void)::unlink(tmp.c_str());
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    set_error(error, "rename " + tmp + ": " + errno_string());
    (void)::unlink(tmp.c_str());
    return false;
  }
  fsync_parent_dir(path);
  return true;
}

std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::string out;
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      (void)::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  (void)::close(fd);
  return out;
}

std::string render_record(const CheckpointRecord& record) {
  char buf[160];
  switch (record.kind) {
    case CheckpointRecordKind::kIntent:
      std::snprintf(buf, sizeof buf, "I %" PRId64 " %d", record.cell,
                    record.attempt);
      break;
    case CheckpointRecordKind::kDone:
      std::snprintf(buf, sizeof buf, "D %" PRId64, record.cell);
      break;
    case CheckpointRecordKind::kQuarantine:
      std::snprintf(buf, sizeof buf, "Q %" PRId64 " %d %s", record.cell,
                    record.attempt,
                    record.reason.empty() ? "crash" : record.reason.c_str());
      break;
    case CheckpointRecordKind::kDegrade:
      std::snprintf(buf, sizeof buf, "G %s",
                    record.reason.empty() ? "io-error" : record.reason.c_str());
      break;
  }
  return seal_record(buf);
}

std::string render_header(const CheckpointHeader& header) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "coeffcamp-ckpt v1 shard=%d shards=%d seed=%" PRIu64
                " cells=%" PRId64,
                header.shard, header.shards, header.campaign_seed,
                header.cells);
  return seal_record(buf);
}

CheckpointLoad parse_checkpoint(std::string_view bytes) {
  CheckpointLoad load;
  bool saw_header = false;
  std::int64_t line_no = 0;
  std::size_t start = 0;
  while (start < bytes.size()) {
    const auto newline = bytes.find('\n', start);
    if (newline == std::string_view::npos) {
      // No terminating newline: the classic torn tail.
      load.recovered_torn_tail = true;
      load.torn_bytes = bytes.size() - start;
      break;
    }
    const std::string_view line = bytes.substr(start, newline - start);
    const bool is_last_line = bytes.find('\n', newline + 1) ==
                                  std::string_view::npos &&
                              newline + 1 == bytes.size();
    ++line_no;
    const auto payload = unseal_record(line);
    bool parsed = false;
    if (payload.has_value()) {
      if (!saw_header) {
        parsed = parse_header_payload(*payload, load.header);
        saw_header = parsed;
        if (!parsed) {
          load.error = "bad checkpoint header";
          return load;
        }
      } else {
        CheckpointRecord record;
        parsed = parse_record_payload(*payload, record);
        if (parsed) load.records.push_back(std::move(record));
      }
    }
    if (!parsed && saw_header) {
      if (is_last_line) {
        // A complete-looking but CRC-broken or unparseable final line:
        // still only the tail, still recoverable.
        load.recovered_torn_tail = true;
        load.torn_bytes = line.size() + 1;
        break;
      }
      load.bad_record_line = line_no;
      load.error = "corrupt checkpoint record before the tail (line " +
                   std::to_string(line_no) + ")";
      return load;
    }
    if (!parsed && !saw_header) {
      load.error = "bad checkpoint header";
      return load;
    }
    start = newline + 1;
  }
  if (!saw_header) {
    load.error = "empty or headerless checkpoint";
    return load;
  }
  load.ok = true;
  return load;
}

CheckpointLoad load_checkpoint(const std::string& path) {
  const auto bytes = read_file(path);
  if (!bytes.has_value()) {
    CheckpointLoad load;
    load.error = "cannot read " + path;
    return load;
  }
  return parse_checkpoint(*bytes);
}

CheckpointWriter::~CheckpointWriter() { close(); }

void CheckpointWriter::close() {
  if (fd_ >= 0) {
    (void)::close(fd_);
    fd_ = -1;
  }
}

bool CheckpointWriter::open(const std::string& path,
                            const CheckpointHeader& header, bool durable,
                            std::string* error) {
  close();
  durable_ = durable;
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) {
    // Fresh shard: the header-only file appears atomically or not at
    // all, so a crash here can never leave a headerless file behind.
    if (!atomic_write_file(path, render_header(header) + "\n", error)) {
      return false;
    }
  } else {
    const auto existing = load_checkpoint(path);
    if (!existing.ok) {
      set_error(error, path + ": " + existing.error);
      return false;
    }
    if (existing.header.shard != header.shard ||
        existing.header.shards != header.shards ||
        existing.header.campaign_seed != header.campaign_seed ||
        existing.header.cells != header.cells) {
      set_error(error, path + ": header does not match this campaign");
      return false;
    }
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) {
    set_error(error, "open " + path + ": " + errno_string());
    return false;
  }
  return true;
}

bool CheckpointWriter::append(const CheckpointRecord& record) {
  return append(std::span(&record, 1));
}

bool CheckpointWriter::append(std::span<const CheckpointRecord> records) {
  if (fd_ < 0) return false;
  std::string bytes;
  for (const CheckpointRecord& record : records) {
    bytes += render_record(record);
    bytes += '\n';
  }
  return write_all(fd_, bytes) && (!durable_ || ::fsync(fd_) == 0);
}

}  // namespace coeff::campaign
