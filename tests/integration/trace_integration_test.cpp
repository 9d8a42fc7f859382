// Trace integration: a real cluster run must leave a coherent,
// chronologically ordered protocol trace.
#include <gtest/gtest.h>

#include <string>

#include "core/coefficient.hpp"
#include "fault/injector.hpp"
#include "flexray/cluster.hpp"

namespace coeff::core {
namespace {

net::MessageSet one_static_message() {
  net::Message m;
  m.id = 1;
  m.node = 0;
  m.kind = net::MessageKind::kStatic;
  m.period = sim::millis(1);
  m.deadline = sim::millis(1);
  m.size_bits = 400;
  return net::MessageSet({m});
}

flexray::ClusterConfig tiny_cluster() {
  flexray::ClusterConfig cfg;
  cfg.g_macro_per_cycle = units::Macroticks{1000};
  cfg.g_number_of_static_slots = 4;
  cfg.gd_static_slot = units::Macroticks{50};
  cfg.g_number_of_minislots = 20;
  cfg.bus_bit_rate = 50'000'000;
  cfg.num_nodes = 2;
  return cfg;
}

TEST(TraceIntegrationTest, CleanRunTracesCycleAndTxEvents) {
  sim::Trace trace;
  CoEfficientScheduler sched(tiny_cluster(), one_static_message(), {},
                             sim::millis(10), {});
  fault::FaultInjector injector(0.0, 1);
  flexray::Cluster cluster(tiny_cluster(), sched,
                           injector.as_corruption_fn(), &trace);
  cluster.run_cycles(10);

  EXPECT_EQ(trace.count(sim::TraceKind::kCycleStart), 10u);
  EXPECT_EQ(trace.count(sim::TraceKind::kTxSuccess), 10u);
  EXPECT_EQ(trace.count(sim::TraceKind::kTxCorrupted), 0u);

  // Chronological order.
  sim::Time last;
  for (const auto& record : trace.records()) {
    EXPECT_GE(record.at, last);
    last = record.at;
  }
  // The dump names the events.
  EXPECT_NE(trace.dump().find("tx_success"), std::string::npos);
}

TEST(TraceIntegrationTest, CorruptedRunTracesFaults) {
  sim::Trace trace;
  CoEfficientScheduler sched(tiny_cluster(), one_static_message(), {},
                             sim::millis(10), {});
  fault::FaultInjector injector(1.0, 1);
  flexray::Cluster cluster(tiny_cluster(), sched,
                           injector.as_corruption_fn(), &trace);
  cluster.run_cycles(5);
  EXPECT_EQ(trace.count(sim::TraceKind::kTxCorrupted), 5u);
  EXPECT_EQ(trace.count(sim::TraceKind::kTxSuccess), 0u);
}

// A run that records nothing passes a null trace; it must walk exactly
// as the traced run does.
TEST(TraceIntegrationTest, DisabledTraceCostsNothing) {
  sim::Trace trace;
  sim::Trace* const traces[] = {&trace, nullptr};
  std::string summaries[2];
  for (int i = 0; i < 2; ++i) {
    CoEfficientScheduler sched(tiny_cluster(), one_static_message(), {},
                               sim::millis(10), {});
    sched.set_trace(traces[i]);
    fault::FaultInjector injector(0.5, 1);
    flexray::Cluster cluster(tiny_cluster(), sched,
                             injector.as_corruption_fn(), traces[i]);
    cluster.run_cycles(5);
    summaries[i] = sched.stats().summary();
  }
  EXPECT_GT(trace.records().size(), 0u);
  EXPECT_EQ(summaries[0], summaries[1]);
}

}  // namespace
}  // namespace coeff::core
