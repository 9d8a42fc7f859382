// Shared plumbing of the end-to-end benchmark: options, clocks, sample
// statistics, the in-memory span tracer, forked-operation helpers and
// the result record every workload returns.
//
// The tracer records spans around calls *into* the libraries, from the
// benchmark's own files only; nothing inside src/ is instrumented.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test mode: tiny inputs, so a pass of every workload is quick.
  bool tiny = false;
  /// Self-test fault injection: corrupt one expected digest / make one
  /// operation throw. Both must surface as failed operations.
  bool inject_wrong_digest = false;
  bool inject_throw = false;
  /// Print the reference digests instead of checking them.
  bool record_digests = false;
  std::map<std::string, std::string> digests;  ///< reference name -> hex
  std::string work_dir;  ///< scratch space inside the checkout
};

// --- Time and statistics ------------------------------------------------

/// CLOCK_MONOTONIC nanoseconds; comparable across forked processes.
[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] double seconds_since(std::int64_t start_ns);
[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; 0 on an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double sum(const std::vector<double>& v);

/// Peak RSS in MB of this process (self) and of its waited-for
/// children (largest single child), from getrusage.
[[nodiscard]] double peak_rss_self_mb();
[[nodiscard]] double peak_rss_children_mb();
/// Current resident set in MB (/proc/self/statm).
[[nodiscard]] double current_rss_mb();

/// 64-bit FNV-1a, rendered as 16 hex digits.
[[nodiscard]] std::string digest_hex(const std::string& text);

// --- Tracing --------------------------------------------------------------

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the span list, -1 = top level
  int op = -1;      ///< operation id shared by the spans of one operation
};

/// In-memory span recorder. Disabled (the untraced pass) it records
/// nothing and costs one branch per span.
class Tracer {
 public:
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_op(int op) { op_ = op; }

  int open(const char* name);
  void close(int index);
  /// A span whose bounds were measured elsewhere (e.g. the walk interval
  /// run_experiment reports), attached under the innermost open span.
  void add(const char* name, std::int64_t start_ns, std::int64_t end_ns);
  /// Adopt spans recorded by a forked child under the innermost open
  /// span of this process.
  void adopt(const std::vector<SpanRecord>& child_spans);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  void clear() {
    spans_.clear();
    stack_.clear();
  }

  /// Durations (s) of every span with this name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Self time (s) of every span with this name: duration minus the
  /// time its direct children cover.
  [[nodiscard]] std::vector<double> self_times(const std::string& name) const;
  /// Share of `traced_wall_s` that no layer span covers. Layer spans
  /// are the top-level spans other than `op_name` plus the direct
  /// children of every `op_name` span; the op spans' own self time and
  /// any gap between spans count as unattributed.
  [[nodiscard]] double unattributed_share(const std::string& op_name,
                                          double traced_wall_s) const;

  /// One JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  int op_ = -1;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

Tracer& tracer();

/// RAII span; a no-op while the tracer is disabled.
class Span {
 public:
  explicit Span(const char* name)
      : index_(tracer().enabled() ? tracer().open(name) : -1) {}
  ~Span() {
    if (index_ >= 0) tracer().close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

// --- Forked operations ----------------------------------------------------

/// What a forked child reported back: named numbers, named strings, its
/// spans, and how it ended.
struct ChildResult {
  bool ok = false;  ///< exited 0 and reported "ok 1"
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> texts;
  std::vector<SpanRecord> spans;
  double wall_s = 0.0;      ///< fork to reap, as the parent saw it
  double maxrss_mb = 0.0;   ///< the child's own peak RSS
};

/// Channel the child body writes its report into.
class ChildReport {
 public:
  void number(const std::string& key, double value);
  void text(const std::string& key, const std::string& value);
  [[nodiscard]] const std::string& payload() const { return out_; }

 private:
  std::string out_;
};

ChildResult run_child_impl(void* ctx, int (*fn)(void*, ChildReport&));

/// Fork, run `body` in the child (its return value is the exit code;
/// an exception exits non-zero), wait, and collect the child's report.
/// The child starts with an empty tracer, enabled as in the parent.
template <typename Body>
ChildResult run_in_child(Body&& body) {
  using Callable = std::remove_reference_t<Body>;
  auto trampoline = [](void* ctx, ChildReport& report) -> int {
    return (*static_cast<Callable*>(ctx))(report);
  };
  return run_child_impl(const_cast<void*>(static_cast<const void*>(&body)), trampoline);
}

// --- Results --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Metrics the final JSON line carries (the end-to-end set untraced,
  /// the per-layer set traced), in declaration order.
  std::vector<Metric> metrics;
  /// Extra named figures printed in the human table only (metrics that
  /// apply to this workload alone, sample counts, digests).
  std::vector<Metric> extras;
  std::vector<std::string> notes;  ///< failure reasons and remarks

  void fail(const std::string& why) {
    ++failed;
    notes.push_back("FAILED: " + why);
  }
};

/// Compare `digest` with the stored reference `name`, or print it when
/// recording. A mismatch counts as a failed operation; `corrupt` (the
/// self-test's injection) replaces the stored value with a wrong one.
void check_reference_digest(const Options& options, const std::string& name,
                            const std::string& digest, bool corrupt,
                            WorkloadResult& out);

/// Per-layer metric names, in output order. Every traced workload
/// reports all of them; a layer a workload does not reach reports 0.
const std::vector<Metric>& per_layer_catalog();
/// Fill `result.metrics` with the per-layer catalog, taking values from
/// `values` (missing names stay 0).
void emit_per_layer(WorkloadResult& result,
                    const std::map<std::string, double>& values);

WorkloadResult run_loaded(const Options& options);
WorkloadResult run_analyze_cold(const Options& options);
WorkloadResult run_campaign_short(const Options& options);

}  // namespace perfbench
