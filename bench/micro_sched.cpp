// Micro-benchmarks of the scheduling and reliability kernels: the costs
// that bound how fast the offline configuration step runs.
#include <benchmark/benchmark.h>

#include "core/cycle_template.hpp"
#include "fault/reliability.hpp"
#include "net/workloads.hpp"
#include "sched/periodic_schedule.hpp"
#include "sched/rta.hpp"
#include "sched/schedule_table.hpp"
#include "sched/slack_table.hpp"
#include "sim/random.hpp"

namespace {

using namespace coeff;

sched::TaskSet make_task_set(int n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<sched::PeriodicTask> tasks;
  for (int i = 0; i < n; ++i) {
    sched::PeriodicTask t;
    t.id = i;
    t.period = sim::millis(rng.uniform_int(1, 10) * 5);
    t.wcet = sim::micros(rng.uniform_int(10, 60));
    t.deadline = t.period;
    t.offset = sim::micros(rng.uniform_int(0, 999));
    tasks.push_back(t);
  }
  return sched::TaskSet(std::move(tasks));
}

net::MessageSet make_statics(std::size_t n) {
  sim::Rng rng(17);
  net::SyntheticStaticOptions opt;
  opt.count = n;
  return net::synthetic_static(opt, rng);
}

void BM_ResponseTimeAnalysis(benchmark::State& state) {
  const auto set = make_task_set(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::response_time_analysis(set));
  }
}
BENCHMARK(BM_ResponseTimeAnalysis)->Arg(10)->Arg(50)->Arg(200);

void BM_PeriodicScheduleSimulation(benchmark::State& state) {
  const auto set = make_task_set(static_cast<int>(state.range(0)), 5);
  const auto horizon = set.hyperperiod() * 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::simulate_periodic(set, horizon));
  }
}
BENCHMARK(BM_PeriodicScheduleSimulation)->Arg(10)->Arg(50)->Arg(200);

void BM_SlackTableBuild(benchmark::State& state) {
  const auto set = make_task_set(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    sched::SlackTable table(set);
    benchmark::DoNotOptimize(table.schedulable());
  }
}
BENCHMARK(BM_SlackTableBuild)->Arg(10)->Arg(50)->Arg(200);

// The same sets' guaranteed idle per 5 ms cycle, without the table.
void BM_MinIdleInWindow(benchmark::State& state) {
  const auto set = make_task_set(static_cast<int>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::min_idle_in_window(set, sim::millis(5)));
  }
}
BENCHMARK(BM_MinIdleInWindow)->Arg(10)->Arg(50)->Arg(200);

void BM_DifferentiatedSolver(benchmark::State& state) {
  const auto set = make_statics(static_cast<std::size_t>(state.range(0)));
  fault::SolverOptions opt;
  opt.ber = 1e-7;
  opt.rho = 1.0 - 1e-7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::solve_differentiated(set, opt));
  }
}
BENCHMARK(BM_DifferentiatedSolver)->Arg(20)->Arg(100)->Arg(200);

void BM_UniformSolver(benchmark::State& state) {
  const auto set = make_statics(static_cast<std::size_t>(state.range(0)));
  fault::SolverOptions opt;
  opt.ber = 1e-7;
  opt.rho = 1.0 - 1e-7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::solve_uniform(set, opt));
  }
}
BENCHMARK(BM_UniformSolver)->Arg(20)->Arg(100)->Arg(200);

void BM_ScheduleTableBuild(benchmark::State& state) {
  const auto set = make_statics(static_cast<std::size_t>(state.range(0)));
  auto cfg = flexray::ClusterConfig::static_suite(80);
  cfg.bus_bit_rate = 50'000'000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::StaticScheduleTable::build(set, cfg));
  }
}
BENCHMARK(BM_ScheduleTableBuild)->Arg(20)->Arg(100)->Arg(200);

// The per-run set-up the walk pays after the table: one template
// rebuild over the same table (every run rebuilds at least once).
void BM_CycleTemplateRebuild(benchmark::State& state) {
  const auto set = make_statics(static_cast<std::size_t>(state.range(0)));
  auto cfg = flexray::ClusterConfig::static_suite(80);
  cfg.bus_bit_rate = 50'000'000;
  const auto table = sched::StaticScheduleTable::build(set, cfg);
  core::CycleTemplate tpl;
  for (auto _ : state) {
    tpl.rebuild(table, set, nullptr, cfg.g_number_of_static_slots);
    benchmark::DoNotOptimize(tpl);
    benchmark::ClobberMemory();
  }
  state.counters["cells"] = static_cast<double>(tpl.cells());
}
BENCHMARK(BM_CycleTemplateRebuild)->Arg(20)->Arg(100)->Arg(200);

void BM_ReliabilityEvaluation(benchmark::State& state) {
  const auto set = make_statics(static_cast<std::size_t>(state.range(0)));
  const std::vector<int> copies(set.size(), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fault::log_set_reliability(set, copies, 1e-7, sim::seconds(3600)));
  }
}
BENCHMARK(BM_ReliabilityEvaluation)->Arg(20)->Arg(200);

}  // namespace

BENCHMARK_MAIN();
