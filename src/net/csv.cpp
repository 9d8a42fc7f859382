#include "net/csv.hpp"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "units/number.hpp"

namespace coeff::net {

namespace {

constexpr const char* kHeader =
    "id,name,node,kind,period_us,offset_us,deadline_us,size_bits,frame_id";

std::string trim(const std::string& s) {
  std::size_t lo = 0;
  std::size_t hi = s.size();
  while (lo < hi && std::isspace(static_cast<unsigned char>(s[lo]))) ++lo;
  while (hi > lo && std::isspace(static_cast<unsigned char>(s[hi - 1]))) --hi;
  return s.substr(lo, hi - lo);
}

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(trim(current));
      current.clear();
    } else {
      current += c;
    }
  }
  fields.push_back(trim(current));
  return fields;
}

std::int64_t parse_int(const std::string& field, int line_no,
                       const char* what) {
  std::int64_t value = 0;
  if (!units::parse_number(field, value)) {
    throw std::invalid_argument("csv line " + std::to_string(line_no) +
                                ": bad " + what + " '" + field + "'");
  }
  return value;
}

/// parse_int with an inclusive range check, so downstream casts and
/// unit conversions cannot truncate or overflow on hostile input.
std::int64_t parse_int_in(const std::string& field, int line_no,
                          const char* what, std::int64_t lo, std::int64_t hi) {
  const std::int64_t value = parse_int(field, line_no, what);
  if (value < lo || value > hi) {
    throw std::invalid_argument("csv line " + std::to_string(line_no) + ": " +
                                what + " out of range '" + field + "'");
  }
  return value;
}

/// Microsecond fields are multiplied by 1000 on the way into sim::Time;
/// cap them so that product stays inside int64 nanoseconds.
constexpr std::int64_t kMaxMicros =
    std::numeric_limits<std::int64_t>::max() / 1000;
constexpr std::int64_t kMinMicros =
    std::numeric_limits<std::int64_t>::min() / 1000;
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();

}  // namespace

std::string to_csv(const MessageSet& set) {
  std::string out = std::string(kHeader) + "\n";
  char line[512];
  for (const auto& m : set.messages()) {
    std::snprintf(line, sizeof line,
                  "%d,%s,%d,%s,%lld,%lld,%lld,%lld,%d\n", m.id,
                  m.name.c_str(), m.node, to_string(m.kind),
                  static_cast<long long>(m.period.ns() / 1000),
                  static_cast<long long>(m.offset.ns() / 1000),
                  static_cast<long long>(m.deadline.ns() / 1000),
                  static_cast<long long>(m.size_bits), m.frame_id);
    out += line;
  }
  return out;
}

MessageSet from_csv(const std::string& text) {
  MessageSet set;
  std::istringstream stream(text);
  std::string line;
  int line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    const std::string trimmed = trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (trimmed == kHeader) continue;
    const auto fields = split_fields(trimmed);
    if (fields.size() != 9) {
      throw std::invalid_argument("csv line " + std::to_string(line_no) +
                                  ": expected 9 fields, got " +
                                  std::to_string(fields.size()));
    }
    Message m;
    m.id = static_cast<int>(
        parse_int_in(fields[0], line_no, "id", kIntMin, kIntMax));
    m.name = fields[1];
    m.node = static_cast<int>(
        parse_int_in(fields[2], line_no, "node", kIntMin, kIntMax));
    if (fields[3] == "static") {
      m.kind = MessageKind::kStatic;
    } else if (fields[3] == "dynamic") {
      m.kind = MessageKind::kDynamic;
    } else {
      throw std::invalid_argument("csv line " + std::to_string(line_no) +
                                  ": bad kind '" + fields[3] + "'");
    }
    m.period = sim::micros(
        parse_int_in(fields[4], line_no, "period", kMinMicros, kMaxMicros));
    m.offset = sim::micros(
        parse_int_in(fields[5], line_no, "offset", kMinMicros, kMaxMicros));
    m.deadline = sim::micros(
        parse_int_in(fields[6], line_no, "deadline", kMinMicros, kMaxMicros));
    m.size_bits = parse_int(fields[7], line_no, "size");
    m.frame_id = static_cast<int>(
        parse_int_in(fields[8], line_no, "frame_id", kIntMin, kIntMax));
    set.add(std::move(m));
  }
  set.validate();
  return set;
}

void save_csv(const MessageSet& set, const std::string& path) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("save_csv: cannot open " + path);
  file << to_csv(set);
  if (!file) throw std::runtime_error("save_csv: write failed on " + path);
}

MessageSet load_csv(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("load_csv: cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return from_csv(buffer.str());
}

}  // namespace coeff::net
