// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload loaded-run|analyze-cold|campaign-short
//             --seed N --seconds S --trace 0|1
//             [--digests FILE] [--work-dir DIR]
//             [--tiny] [--inject-wrong-digest] [--inject-throw]
//             [--record-digests]
//
// Prints a human table, then as its last stdout line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Untraced (--trace 0) the metrics are the end-to-end set; traced
// (--trace 1) they are the per-layer set derived from in-memory spans.
// perfbench/README.md documents the workloads and metrics.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

std::map<std::string, std::string> load_digests(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage(("cannot read digests file " + path).c_str());
  std::map<std::string, std::string> digests;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string hex;
    if (fields >> name >> hex) digests[name] = hex;
  }
  return digests;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage((arg + " needs a value").c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      if (!parse_u64(value(), opt.seed)) usage("--seed needs a whole number");
    } else if (arg == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      opt.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(opt.seconds > 0.0)) {
        usage("--seconds needs a positive number");
      }
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (arg == "--digests") {
      opt.digests = load_digests(value());
    } else if (arg == "--work-dir") {
      opt.work_dir = value();
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--inject-wrong-digest") {
      opt.inject_wrong_digest = true;
    } else if (arg == "--inject-throw") {
      opt.inject_throw = true;
    } else if (arg == "--record-digests") {
      opt.record_digests = true;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.work_dir.empty()) opt.work_dir = ".";
  return opt;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_table(const Options& opt, const WorkloadResult& r) {
  std::printf("perfbench %s  seed=%llu  seconds=%g  trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  for (const Metric& m : r.metrics) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : r.extras) {
    std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const double ratio = r.attempted > 0 ? static_cast<double>(r.failed) /
                                             static_cast<double>(r.attempted)
                                       : 0.0;
  std::printf("  %-40s %16.6g %s  (%lld of %lld operations)\n", "failed_ratio",
              ratio, "ratio", static_cast<long long>(r.failed),
              static_cast<long long>(r.attempted));
  for (const std::string& note : r.notes) std::printf("  %s\n", note.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  tracer().enable(opt.trace);

  WorkloadResult result;
  if (opt.workload == "loaded-run") {
    result = run_loaded(opt);
  } else if (opt.workload == "analyze-cold") {
    result = run_analyze_cold(opt);
  } else if (opt.workload == "campaign-short") {
    result = run_campaign_short(opt);
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }
  if (opt.record_digests) return 0;

  if (opt.trace) {
    const std::string path = opt.work_dir + "/trace-" + opt.workload + ".jsonl";
    if (!tracer().write_jsonl(path)) {
      result.notes.push_back("could not write span log " + path);
    } else {
      result.notes.push_back("spans written to " + path);
    }
  }
  print_table(opt, result);

  std::string json = "{\"correct\": ";
  json += result.failed == 0 && result.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i != 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
