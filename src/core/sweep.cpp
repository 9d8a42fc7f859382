#include "core/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "units/number.hpp"

namespace coeff::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The worker count the host reports, never less than 1.
unsigned hardware_threads() {
  return std::max(1U, std::thread::hardware_concurrency());
}

}  // namespace

SweepRunner::SweepRunner(int jobs) : jobs_(resolve_jobs(jobs)) {}

int SweepRunner::resolve_jobs(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("COEFF_JOBS")) {
    // The whole value must be a positive integer: "4x" is not 4 workers.
    int n = 0;
    if (units::parse_number(env, n) && n > 0) return n;
  }
  return static_cast<int>(hardware_threads());
}

SweepReport SweepRunner::run(const std::vector<SweepCell>& cells) const {
  SweepReport report;
  report.jobs = jobs_;
  report.cells.resize(cells.size());
  std::vector<std::exception_ptr> errors(cells.size());

  const auto run_cell = [&](std::size_t i) {
    SweepCellResult& out = report.cells[i];
    const auto start = Clock::now();
    try {
      out.label = cells[i].label;
      out.result = run_experiment(cells[i].config, cells[i].scheme);
    } catch (...) {
      errors[i] = std::current_exception();
    }
    out.wall_seconds = seconds_since(start);
  };

  const auto total_start = Clock::now();
  if (jobs_ <= 1 || cells.size() <= 1) {
    for (std::size_t i = 0; i < cells.size(); ++i) run_cell(i);
  } else {
    // Dynamic assignment: workers pull the next unclaimed cell, so a
    // slow cell never blocks the rest of the grid. Each result lands in
    // its own pre-sized slot — no ordering races. run_cell catches every
    // exception, so no worker ends the program.
    std::atomic<std::size_t> next{0};
    const std::size_t workers =
        std::min(static_cast<std::size_t>(jobs_), cells.size());
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < cells.size();
             i = next.fetch_add(1)) {
          run_cell(i);
        }
      });
    }
  }  // the jthreads join here, before the results are read
  report.total_wall_seconds = seconds_since(total_start);
  for (const SweepCellResult& cell : report.cells) {
    report.serial_estimate_seconds += cell.wall_seconds;
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return report;
}

std::string sweep_report_json(const SweepReport& report,
                              const std::string& suite) {
  std::ostringstream out;
  out.precision(9);
  const auto escape = [](const std::string& s) {
    std::string r;
    for (const char c : s) {
      if (c == '"' || c == '\\') r.push_back('\\');
      r.push_back(c);
    }
    return r;
  };
  out << "{\n"
      << "  \"suite\": \"" << escape(suite) << "\",\n"
      << "  \"jobs\": " << report.jobs << ",\n"
      << "  \"hardware_concurrency\": "
      << hardware_threads() << ",\n"
      << "  \"total_wall_s\": " << report.total_wall_seconds << ",\n"
      << "  \"serial_estimate_s\": " << report.serial_estimate_seconds
      << ",\n"
      << "  \"speedup_vs_serial_estimate\": " << report.speedup_estimate()
      << ",\n"
      << "  \"cells\": [\n";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const SweepCellResult& cell = report.cells[i];
    out << "    {\"label\": \"" << escape(cell.label) << "\", "
        << "\"scheme\": \"" << to_string(cell.result.scheme) << "\", "
        << "\"wall_s\": " << cell.wall_seconds << ", "
        << "\"miss_ratio\": " << cell.result.run.overall_miss_ratio() << ", "
        << "\"running_time_s\": "
        << cell.result.run.running_time.as_seconds() << ", "
        << "\"cycles\": " << cell.result.cycles_run << "}"
        << (i + 1 < report.cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

void write_sweep_json(const SweepReport& report, const std::string& suite,
                      const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("sweep: cannot write " + path);
  }
  out << sweep_report_json(report, suite);
}

}  // namespace coeff::core
