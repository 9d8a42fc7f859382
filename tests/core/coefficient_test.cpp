#include "core/coefficient.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hpp"
#include "core/hosa.hpp"
#include "fault/injector.hpp"
#include "flexray/cluster.hpp"
#include "net/workloads.hpp"

namespace coeff::core {
namespace {

flexray::ClusterConfig small_cluster() {
  flexray::ClusterConfig cfg;
  cfg.g_macro_per_cycle = units::Macroticks{1000};  // 1 ms cycle
  cfg.g_number_of_static_slots = 8;
  cfg.gd_static_slot = units::Macroticks{50};
  cfg.g_number_of_minislots = 40;
  cfg.gd_minislot = units::Macroticks{8};
  cfg.bus_bit_rate = 50'000'000;
  cfg.num_nodes = 4;
  cfg.validate();
  return cfg;
}

net::Message static_msg(int id, int node, int period_ms, int bits,
                        int offset_us = 0) {
  net::Message m;
  m.id = id;
  m.node = node;
  m.kind = net::MessageKind::kStatic;
  m.period = sim::millis(period_ms);
  m.deadline = sim::millis(period_ms);
  m.offset = sim::micros(offset_us);
  m.size_bits = bits;
  return m;
}

net::Message dynamic_msg(int id, int node, int frame_id, int bits,
                         int period_ms = 10) {
  net::Message m;
  m.id = id;
  m.node = node;
  m.kind = net::MessageKind::kDynamic;
  m.period = sim::millis(period_ms);
  m.deadline = sim::millis(period_ms);
  m.size_bits = bits;
  m.frame_id = frame_id;
  return m;
}

struct Harness {
  explicit Harness(net::MessageSet statics, net::MessageSet dynamics,
                   double ber = 0.0, double rho = 0.0,
                   sim::Time window = sim::millis(100))
      : scheduler(small_cluster(), std::move(statics), std::move(dynamics),
                  window,
                  [&] {
                    CoEfficientOptions opt;
                    opt.ber = ber > 0 ? ber : 1e-7;
                    opt.rho = rho;
                    return opt;
                  }()),
        injector(ber, 1),
        cluster(small_cluster(), scheduler, injector.as_corruption_fn()) {}

  void run(sim::Time until) {
    cluster.run_until(until);
    scheduler.finalize(cluster.now());
  }

  CoEfficientScheduler scheduler;
  fault::FaultInjector injector;
  flexray::Cluster cluster;
};

TEST(CoEfficientTest, FaultFreeFeasibleSetDeliversEverything) {
  net::MessageSet statics({static_msg(1, 0, 1, 400), static_msg(2, 1, 2, 800)});
  Harness h(statics, {});
  h.run(sim::millis(110));
  const auto& s = h.scheduler.stats().statics;
  EXPECT_EQ(s.released, 100 + 50);
  EXPECT_EQ(s.delivered, s.released);
  EXPECT_EQ(s.missed, 0);
  EXPECT_EQ(s.copies_corrupted, 0);
}

TEST(CoEfficientTest, NoReliabilityGoalMeansNoRetransmissions) {
  net::MessageSet statics({static_msg(1, 0, 1, 400)});
  Harness h(statics, {}, 0.0, 0.0);
  h.run(sim::millis(50));
  EXPECT_EQ(h.scheduler.stats().retransmission_copies_planned, 0);
  EXPECT_EQ(h.scheduler.stats().retransmission_copies_sent, 0);
  EXPECT_EQ(h.scheduler.plan().total_copies(), 0);
}

TEST(CoEfficientTest, ReliabilityGoalSchedulesSelectiveCopies) {
  net::MessageSet statics({static_msg(1, 0, 1, 1500),  // large, frequent
                           static_msg(2, 1, 10, 100)});  // small, rare
  Harness h(statics, {}, 1e-6, 1.0 - 1e-6);
  h.run(sim::millis(100));
  const auto& plan = h.scheduler.plan();
  EXPECT_GT(plan.total_copies(), 0);
  // Differentiated: the large frequent message gets at least as many
  // copies as the small rare one.
  EXPECT_GE(plan.copies[0], plan.copies[1]);
  EXPECT_GT(h.scheduler.stats().retransmission_copies_sent, 0);
  EXPECT_GT(h.scheduler.stats().slack_slots_stolen, 0);
}

TEST(CoEfficientTest, RetransmissionCopiesLandInIdleCapacity) {
  // One static message, plenty of idle slots: every planned copy fits,
  // none dropped.
  net::MessageSet statics({static_msg(1, 0, 1, 1500)});
  Harness h(statics, {}, 1e-6, 1.0 - 1e-6);
  h.run(sim::millis(100));
  const auto& st = h.scheduler.stats();
  EXPECT_GT(st.retransmission_copies_planned, 0);
  EXPECT_EQ(st.retransmission_copies_dropped, 0);
  EXPECT_EQ(st.retransmission_copies_sent, st.retransmission_copies_planned);
}

TEST(CoEfficientTest, CertainCorruptionMissesEverything) {
  net::MessageSet statics({static_msg(1, 0, 1, 400)});
  Harness h(statics, {}, 1.0);
  h.run(sim::millis(20));
  const auto& s = h.scheduler.stats().statics;
  EXPECT_EQ(s.delivered, 0);
  EXPECT_GT(s.missed, 0);
  EXPECT_EQ(s.copies_corrupted, s.copies_sent);
}

TEST(CoEfficientTest, DualChannelRedundancyDefeatsSingleChannelFaults) {
  // With rho set, copies land on channel B; a fault on one channel is
  // survivable. Use a high BER so single-copy delivery would fail often.
  net::MessageSet statics({static_msg(1, 0, 1, 1500)});
  Harness with_retx(statics, {}, 1e-5, 1.0 - 1e-6);
  with_retx.run(sim::millis(100));
  Harness without_retx(statics, {}, 1e-5, 0.0);
  without_retx.run(sim::millis(100));
  EXPECT_GE(with_retx.scheduler.stats().statics.delivered,
            without_retx.scheduler.stats().statics.delivered);
}

TEST(CoEfficientTest, DynamicMessagesServedInDynamicSegment) {
  net::MessageSet dynamics({dynamic_msg(10, 0, 9, 200)});
  Harness h({}, dynamics);
  std::vector<flexray::Arrival> arrivals;
  for (int i = 0; i < 5; ++i) arrivals.push_back({sim::millis(i * 10), 10});
  h.cluster.set_arrivals(std::move(arrivals));
  h.run(sim::millis(60));
  const auto& d = h.scheduler.stats().dynamics;
  EXPECT_EQ(d.released, 5);
  EXPECT_EQ(d.delivered, 5);
  EXPECT_EQ(d.missed, 0);
  // Served by FTDMA, not stolen slots.
  EXPECT_EQ(h.scheduler.stats().dynamic_in_static_slots, 0);
  // Latency well under one cycle beyond the segment offset.
  EXPECT_LT(d.latency.mean_ms(), 2.0);
}

TEST(CoEfficientTest, StarvedFrameIdRescuedThroughStolenSlack) {
  // Frame id 200 is far beyond the reachable slot-counter range
  // (8 static slots + 40 minislots); only slack stealing can carry it.
  net::MessageSet dynamics({dynamic_msg(10, 0, 200, 200, 20)});
  Harness h({}, dynamics);
  std::vector<flexray::Arrival> arrivals;
  for (int i = 0; i < 4; ++i) arrivals.push_back({sim::millis(i * 20), 10});
  h.cluster.set_arrivals(std::move(arrivals));
  h.run(sim::millis(90));
  const auto& d = h.scheduler.stats().dynamics;
  EXPECT_EQ(d.delivered, 4);
  EXPECT_EQ(h.scheduler.stats().dynamic_in_static_slots, 4);
}

TEST(CoEfficientTest, TightDeadlineRescuedByEarlyCopy) {
  // The message releases at 900 us with a 1 ms deadline; its TDMA slot
  // (early in the next cycle's static segment) would land at ~1.0-1.05 ms
  // after release only if an early slot is free — the offset forces
  // latency past many slots. A retransmission copy can use *any* idle
  // slot and deliver earlier than the primary in adverse placements.
  net::MessageSet statics({static_msg(1, 0, 1, 400, 900),
                           static_msg(2, 1, 1, 400, 0)});
  Harness with_copies(statics, {}, 1e-6, 1.0 - 1e-9);
  with_copies.run(sim::millis(100));
  Harness without_copies(statics, {}, 1e-6, 0.0);
  without_copies.run(sim::millis(100));
  EXPECT_GE(with_copies.scheduler.stats().statics.delivered,
            without_copies.scheduler.stats().statics.delivered);
}

TEST(CoEfficientTest, SharedDynamicFrameIdServedByPriorityQueue) {
  // §II-B: two messages may share a dynamic frame id; the node's
  // priority queue picks which goes out each cycle.
  net::MessageSet dynamics(
      {dynamic_msg(10, 0, 9, 200), dynamic_msg(11, 0, 9, 400)});
  Harness h({}, dynamics);
  h.cluster.set_arrivals({{sim::Time::zero(), 10}, {sim::Time::zero(), 11}});
  h.run(sim::millis(20));
  const auto& d = h.scheduler.stats().dynamics;
  EXPECT_EQ(d.released, 2);
  EXPECT_EQ(d.delivered, 2);
}

TEST(CoEfficientTest, SharedFrameIdAcrossNodesRejected) {
  net::MessageSet dynamics(
      {dynamic_msg(10, 0, 9, 200), dynamic_msg(11, 1, 9, 400)});
  EXPECT_THROW(
      CoEfficientScheduler(small_cluster(), {}, dynamics, sim::millis(10), {}),
      std::invalid_argument);
}

TEST(CoEfficientTest, MessageIdBothStaticAndDynamicRejected) {
  // Arrivals, plans and traces name messages by id, so every scheme
  // refuses a static and a dynamic message that share one, naming it.
  const net::MessageSet statics({static_msg(1, 0, 1, 400)});
  const net::MessageSet dynamics({dynamic_msg(1, 0, 9, 200)});
  try {
    CoEfficientScheduler(small_cluster(), statics, dynamics, sim::millis(10),
                         {});
    ADD_FAILURE() << "shared id accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "SchedulerBase: message id 1 is both static and dynamic");
  }
  EXPECT_THROW(FspecScheduler(small_cluster(), statics, dynamics,
                              sim::millis(10), {}),
               std::invalid_argument);
  EXPECT_THROW(HosaScheduler(small_cluster(), statics, dynamics,
                             sim::millis(10)),
               std::invalid_argument);
  // Distinct ids are fine.
  EXPECT_NO_THROW(CoEfficientScheduler(
      small_cluster(), statics, net::MessageSet({dynamic_msg(2, 0, 9, 200)}),
      sim::millis(10), {}));
}

TEST(CoEfficientTest, UnplacedDynamicFrameIdThrows) {
  net::MessageSet dynamics({dynamic_msg(10, 0, 3, 200)});  // id 3 <= 8 slots
  EXPECT_THROW(
      CoEfficientScheduler(small_cluster(), {}, dynamics, sim::millis(10), {}),
      std::invalid_argument);
}

TEST(CoEfficientTest, WorkRemainingDrainsToZero) {
  net::MessageSet statics({static_msg(1, 0, 1, 400)});
  Harness h(statics, {}, 0.0, 0.0);
  h.cluster.run_until(sim::millis(101));
  EXPECT_FALSE(h.scheduler.work_remaining());
}

}  // namespace
}  // namespace coeff::core
