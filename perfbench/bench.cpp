#include "bench.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <fstream>
#include <sstream>

namespace perfbench {

std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

double peak_rss_self_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double peak_rss_children_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long long size = 0;
  long long resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

std::string digest_hex(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// --- Tracer -----------------------------------------------------------------

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

int Tracer::open(const char* name) {
  SpanRecord span;
  span.name = name;
  span.start_ns = now_ns();
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op_;
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::add(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
  if (!enabled_) return;
  SpanRecord span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.op = op_;
  spans_.push_back(std::move(span));
}

void Tracer::adopt(const std::vector<SpanRecord>& child_spans) {
  if (!enabled_) return;
  const int base = static_cast<int>(spans_.size());
  const int anchor = stack_.empty() ? -1 : stack_.back();
  for (SpanRecord span : child_spans) {
    span.parent = span.parent < 0 ? anchor : span.parent + base;
    span.op = op_;
    spans_.push_back(std::move(span));
  }
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

std::vector<double> Tracer::self_times(const std::string& name) const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.name != name) continue;
    const std::int64_t self = s.end_ns - s.start_ns - child_ns[i];
    out.push_back(static_cast<double>(std::max<std::int64_t>(0, self)) * 1e-9);
  }
  return out;
}

double Tracer::unattributed_share(const std::string& op_name,
                                  double traced_wall_s) const {
  if (traced_wall_s <= 0.0) return 0.0;
  std::int64_t layer_ns = 0;
  for (const SpanRecord& s : spans_) {
    const bool top_layer = s.parent < 0 && s.name != op_name;
    const bool op_child =
        s.parent >= 0 && spans_[static_cast<std::size_t>(s.parent)].name == op_name;
    if (top_layer || op_child) layer_ns += s.end_ns - s.start_ns;
  }
  return 1.0 - static_cast<double>(layer_ns) * 1e-9 / traced_wall_s;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":"
        << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"parent\":"
        << s.parent << ",\"op\":" << s.op << "}\n";
  }
  return static_cast<bool>(out);
}

// --- Forked operations ------------------------------------------------------

void ChildReport::number(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out_ += "n " + key + " " + buf + "\n";
}

void ChildReport::text(const std::string& key, const std::string& value) {
  std::string flat = value;
  std::replace(flat.begin(), flat.end(), '\n', ' ');
  out_ += "t " + key + " " + flat + "\n";
}

namespace {

bool write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

void parse_child_payload(const std::string& payload, ChildResult& result) {
  std::istringstream in(payload);
  std::string line;
  bool reported_ok = false;
  while (std::getline(in, line)) {
    if (line.size() < 2) continue;
    const char kind = line[0];
    std::istringstream fields(line.substr(2));
    if (kind == 'n') {
      std::string key;
      double value = 0.0;
      if (fields >> key >> value) result.numbers[key] = value;
    } else if (kind == 't') {
      std::string key;
      fields >> key;
      std::string rest;
      std::getline(fields, rest);
      if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      result.texts[key] = rest;
    } else if (kind == 's') {
      SpanRecord span;
      if (fields >> span.name >> span.start_ns >> span.end_ns >> span.parent) {
        result.spans.push_back(std::move(span));
      }
    } else if (line == "ok 1") {
      reported_ok = true;
    }
  }
  result.ok = result.ok && reported_ok;
}

}  // namespace

ChildResult run_child_impl(void* ctx, int (*fn)(void*, ChildReport&)) {
  ChildResult result;
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) return result;
  std::fflush(stdout);
  std::fflush(stderr);
  const std::int64_t start = now_ns();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return result;
  }
  if (pid == 0) {
    ::close(fds[0]);
    tracer().clear();
    ChildReport report;
    int code = 3;
    try {
      code = fn(ctx, report);
    } catch (const std::exception& e) {
      report.text("error", e.what());
      code = 3;
    }
    std::string payload = report.payload();
    for (const SpanRecord& s : tracer().spans()) {
      payload += "s " + s.name + " " + std::to_string(s.start_ns) + " " +
                 std::to_string(s.end_ns) + " " + std::to_string(s.parent) +
                 "\n";
    }
    if (code == 0) payload += "ok 1\n";
    (void)write_all(fds[1], payload);
    ::close(fds[1]);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string payload;
  char buf[65536];
  while (true) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    payload.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  result.wall_s = seconds_since(start);
  result.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  result.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  parse_child_payload(payload, result);
  return result;
}

void check_reference_digest(const Options& options, const std::string& name,
                            const std::string& digest, bool corrupt,
                            WorkloadResult& out) {
  if (options.record_digests) {
    std::printf("digest %s %s\n", name.c_str(), digest.c_str());
    return;
  }
  const auto it = options.digests.find(name);
  const std::string expected = corrupt                      ? "0000000000000000"
                               : it != options.digests.end() ? it->second
                                                             : "missing";
  if (digest != expected) {
    out.fail("reference " + name + " digest " + digest + " != stored " + expected);
  }
}

// --- Per-layer catalog --------------------------------------------------------

const std::vector<Metric>& per_layer_catalog() {
  static const std::vector<Metric> catalog = {
      {"flexray.walk_ns_per_cycle.coefficient", 0.0, "ns"},
      {"flexray.walk_ns_per_cycle.fspec", 0.0, "ns"},
      {"flexray.walk_ns_per_cycle.hosa", 0.0, "ns"},
      {"flexray.walk_ns_per_frame", 0.0, "ns"},
      {"flexray.cycles_run", 0.0, "count"},
      {"flexray.compiled_share", 0.0, "ratio"},
      {"flexray.interpreted_cycles", 0.0, "count"},
      {"core.scheduler_ctor_s.coefficient", 0.0, "s"},
      {"core.scheduler_ctor_s.fspec", 0.0, "s"},
      {"core.scheduler_ctor_s.hosa", 0.0, "s"},
      {"core.template_build_s", 0.0, "s"},
      {"core.setup_share", 0.0, "ratio"},
      {"fault.plan_solve_s", 0.0, "s"},
      {"fault.plan_copies", 0.0, "count"},
      {"sched.table_build_s", 0.0, "s"},
      {"net.generate_s", 0.0, "s"},
      {"net.arrivals", 0.0, "count"},
      {"sched.slack_table_build_s", 0.0, "s"},
      {"sched.slack_table_rss_mb", 0.0, "MB"},
      {"sched.slack_query_s", 0.0, "s"},
      {"sched.slack_table_share", 0.0, "ratio"},
      {"analysis.setup_s", 0.0, "s"},
      {"analysis.prob_wcrt_s", 0.0, "s"},
      {"analysis.prob_wcrt_self_s", 0.0, "s"},
      {"analysis.dyn_wcrt_s", 0.0, "s"},
      {"campaign.generate_s", 0.0, "s"},
      {"campaign.cell_setup_s", 0.0, "s"},
      {"campaign.cell_walk_s", 0.0, "s"},
      {"campaign.row_s", 0.0, "s"},
      {"campaign.checkpoint_append_s", 0.0, "s"},
      {"campaign.shard_imbalance", 0.0, "ratio"},
      {"campaign.scan_s", 0.0, "s"},
      {"campaign.aggregate_s", 0.0, "s"},
      {"campaign.cross_check_s", 0.0, "s"},
      {"trace.overhead", 0.0, "ratio"},
      {"trace.unattributed_share", 0.0, "ratio"},
  };
  return catalog;
}

void emit_per_layer(WorkloadResult& result,
                    const std::map<std::string, double>& values) {
  for (Metric m : per_layer_catalog()) {
    const auto it = values.find(m.name);
    if (it != values.end()) m.value = it->second;
    result.metrics.push_back(m);
  }
}

}  // namespace perfbench
