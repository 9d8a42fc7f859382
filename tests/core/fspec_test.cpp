#include "core/fspec.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fault/injector.hpp"
#include "flexray/cluster.hpp"

namespace coeff::core {
namespace {

flexray::ClusterConfig small_cluster() {
  flexray::ClusterConfig cfg;
  cfg.g_macro_per_cycle = units::Macroticks{1000};
  cfg.g_number_of_static_slots = 8;
  cfg.gd_static_slot = units::Macroticks{50};
  cfg.g_number_of_minislots = 40;
  cfg.gd_minislot = units::Macroticks{8};
  cfg.bus_bit_rate = 50'000'000;
  cfg.num_nodes = 4;
  cfg.validate();
  return cfg;
}

net::Message static_msg(int id, int node, int period_ms, int bits) {
  net::Message m;
  m.id = id;
  m.node = node;
  m.kind = net::MessageKind::kStatic;
  m.period = sim::millis(period_ms);
  m.deadline = sim::millis(period_ms);
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
  Harness(net::MessageSet statics, net::MessageSet dynamics, int rounds,
          double ber = 0.0, sim::Time window = sim::millis(100))
      : scheduler(small_cluster(), std::move(statics), std::move(dynamics),
                  window, FspecOptions{rounds}),
        injector(ber, 1),
        cluster(small_cluster(), scheduler, injector.as_corruption_fn()) {}

  void run(sim::Time until) {
    cluster.run_until(until);
    scheduler.finalize(cluster.now());
  }

  FspecScheduler scheduler;
  fault::FaultInjector injector;
  flexray::Cluster cluster;
};

TEST(FspecTest, RoundsMustBePositive) {
  EXPECT_THROW(FspecScheduler(small_cluster(), {}, {}, sim::millis(10),
                              FspecOptions{0}),
               std::invalid_argument);
}

TEST(FspecTest, SingleRoundMirrorsEveryInstance) {
  net::MessageSet statics({static_msg(1, 0, 1, 400)});
  Harness h(statics, {}, 1);
  h.run(sim::millis(110));
  const auto& s = h.scheduler.stats().statics;
  EXPECT_EQ(s.released, 100);
  EXPECT_EQ(s.delivered, 100);
  // Every instance carried once on A and once on B.
  EXPECT_EQ(s.copies_sent, 200);
}

TEST(FspecTest, IdleSlotsStayIdle) {
  // One message in an 8-slot segment: 7 slots idle on A, 7 on B, plus
  // the whole dynamic segment. FSPEC never reuses them.
  net::MessageSet statics({static_msg(1, 0, 1, 400)});
  Harness h(statics, {}, 1);
  h.run(sim::millis(50));
  EXPECT_EQ(h.scheduler.stats().slack_slots_stolen, 0);
  EXPECT_EQ(h.scheduler.stats().dynamic_in_static_slots, 0);
  const auto& a = h.cluster.channel(flexray::ChannelId::kA).stats();
  EXPECT_EQ(a.frames, 50);  // exactly one frame per cycle on A
}

TEST(FspecTest, BestEffortDropsRoundsUnderPressure) {
  // rounds=2 but releases arrive every slot occurrence: fresh data
  // preempts the train, so every instance gets exactly one round and
  // the planned retransmissions are silently dropped (the reliability
  // shortfall of §I-Challenge 2).
  net::MessageSet statics({static_msg(1, 0, 1, 400)});
  Harness h(statics, {}, 2);
  h.run(sim::millis(110));
  const auto& s = h.scheduler.stats().statics;
  EXPECT_EQ(s.released, 100);
  EXPECT_EQ(s.missed, 0);
  // One mirrored pair per instance actually flew...
  EXPECT_NEAR(static_cast<double>(s.copies_sent), 200.0, 4.0);
  // ...even though two pairs per instance were planned.
  EXPECT_NEAR(
      static_cast<double>(h.scheduler.stats().retransmission_copies_planned),
      200.0, 4.0);
  EXPECT_LE(h.scheduler.stats().retransmission_copies_sent, 4);
}

TEST(FspecTest, SlowMessagesCompleteAllRounds) {
  // Period 4 ms with an exclusive every-cycle slot: rounds run in
  // consecutive cycles, well within the period.
  net::MessageSet statics({static_msg(1, 0, 4, 400)});
  Harness h(statics, {}, 2);
  h.run(sim::millis(110));
  const auto& s = h.scheduler.stats().statics;
  EXPECT_EQ(s.missed, 0);
  // 25 instances x 2 rounds x 2 channels.
  EXPECT_NEAR(static_cast<double>(s.copies_sent), 25 * 4, 4.0);
  EXPECT_GT(h.scheduler.stats().retransmission_copies_sent, 0);
}

TEST(FspecTest, ExclusiveSlotsExhaustedMeansDataLoss) {
  // Ten messages, eight slots, no multiplexing: two messages get no
  // slot and every one of their instances is lost.
  net::MessageSet statics;
  for (int i = 1; i <= 10; ++i) statics.add(static_msg(i, i % 4, 2, 400));
  Harness h(statics, {}, 1);
  h.run(sim::millis(110));
  const auto& s = h.scheduler.stats().statics;
  EXPECT_EQ(s.released, 10 * 50);
  EXPECT_EQ(s.missed, 2 * 50);
  EXPECT_EQ(s.delivered, 8 * 50);
}

TEST(FspecTest, MirrorSurvivesSingleChannelFault) {
  // BER high enough that one copy often dies, but the A+B pair rarely
  // both die: delivery stays near 100%.
  net::MessageSet statics({static_msg(1, 0, 1, 1500)});
  Harness h(statics, {}, 1, 1e-5);
  h.run(sim::millis(110));
  const auto& s = h.scheduler.stats().statics;
  EXPECT_EQ(s.released, 100);
  EXPECT_GE(s.delivered, 98);
  EXPECT_GT(s.copies_corrupted, 0);
}

TEST(FspecTest, DynamicTrafficIsMirrored) {
  net::MessageSet dynamics({dynamic_msg(10, 0, 9, 200)});
  Harness h({}, dynamics, 1);
  std::vector<flexray::Arrival> arrivals;
  for (int i = 0; i < 5; ++i) arrivals.push_back({sim::millis(i * 10), 10});
  h.cluster.set_arrivals(std::move(arrivals));
  h.run(sim::millis(60));
  const auto& d = h.scheduler.stats().dynamics;
  EXPECT_EQ(d.released, 5);
  EXPECT_EQ(d.delivered, 5);
  EXPECT_EQ(d.copies_sent, 10);  // each instance on A and B
  const auto& a = h.cluster.channel(flexray::ChannelId::kA).stats();
  const auto& b = h.cluster.channel(flexray::ChannelId::kB).stats();
  EXPECT_EQ(a.busy_dynamic, b.busy_dynamic);
}

TEST(FspecTest, UnreachableDynamicFrameIdStarves) {
  // Frame id 200 is beyond the slot-counter range and FSPEC has no
  // slack-stealing rescue: the message is never sent.
  net::MessageSet dynamics({dynamic_msg(10, 0, 200, 200, 20)});
  Harness h({}, dynamics, 1);
  std::vector<flexray::Arrival> arrivals;
  for (int i = 0; i < 4; ++i) arrivals.push_back({sim::millis(i * 20), 10});
  h.cluster.set_arrivals(std::move(arrivals));
  h.run(sim::millis(90));
  const auto& d = h.scheduler.stats().dynamics;
  EXPECT_EQ(d.delivered, 0);
  EXPECT_EQ(d.missed, 4);
}

}  // namespace
}  // namespace coeff::core
