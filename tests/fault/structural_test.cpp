#include "fault/structural.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace coeff::fault {
namespace {

using flexray::ChannelId;
using flexray::TopologyEventKind;

/// The node count of the cluster the models below drive.
constexpr int kNodes = 10;

TEST(StructuralConfigTest, EmptyDetectsNoFaultSources) {
  StructuralFaultConfig config;
  EXPECT_TRUE(config.empty());
  config.blackouts.push_back(
      {ChannelId::kA, sim::millis(1), sim::millis(2)});
  EXPECT_FALSE(config.empty());
}

TEST(StructuralConfigTest, ValidateRejectsBackwardsAndNegative) {
  StructuralFaultConfig config;
  config.crashes.push_back({units::NodeId{-1}, sim::millis(1)});
  EXPECT_THROW(config.validate(kNodes), std::invalid_argument);

  config = {};
  config.crashes.push_back(
      {units::NodeId{0}, sim::millis(5), sim::millis(3)});  // restart < crash
  EXPECT_THROW(config.validate(kNodes), std::invalid_argument);

  config = {};
  config.blackouts.push_back(
      {ChannelId::kB, sim::millis(4), sim::millis(4)});  // empty window
  EXPECT_THROW(config.validate(kNodes), std::invalid_argument);

  config = {};
  config.stochastic_crashes.crashes_per_second = 1.0;
  config.stochastic_crashes.num_nodes = 0;  // rate with no nodes
  EXPECT_THROW(config.validate(kNodes), std::invalid_argument);
}

// Every node id names one of the cluster's nodes: node 99 on a 10-node
// cluster is refused (it would index per-node arrays out of range), and
// so is a stochastic generator over more nodes than the cluster has.
TEST(StructuralConfigTest, ValidateRejectsNodesOutsideTheCluster) {
  StructuralFaultConfig config;
  config.crashes.push_back({units::NodeId{9}, sim::millis(1)});
  EXPECT_NO_THROW(config.validate(10));
  config.crashes.push_back(
      {units::NodeId{99}, sim::millis(10), sim::millis(20)});
  try {
    config.validate(10);
    ADD_FAILURE() << "crash node 99 accepted on a 10-node cluster";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "StructuralFaultConfig: crash node 99 outside the "
                 "cluster's 10 nodes");
  }

  config = {};
  BabbleWindow babble;
  babble.babbler = units::NodeId{10};
  babble.slot = units::SlotId{1};
  babble.at = sim::millis(1);
  config.babbles.push_back(babble);
  EXPECT_THROW(config.validate(10), std::invalid_argument);

  config = {};
  DriftWindow drift;
  drift.node = units::NodeId{10};
  drift.at = sim::millis(1);
  config.drifts.push_back(drift);
  EXPECT_THROW(config.validate(10), std::invalid_argument);

  config = {};
  config.stochastic_crashes.crashes_per_second = 1.0;
  config.stochastic_crashes.horizon = sim::millis(100);
  config.stochastic_crashes.num_nodes = 11;
  EXPECT_THROW(config.validate(10), std::invalid_argument);
  config.stochastic_crashes.num_nodes = 10;
  EXPECT_NO_THROW(config.validate(10));
}

TEST(NodeFaultModelTest, ScheduledCrashReplaysInOrder) {
  StructuralFaultConfig config;
  config.crashes.push_back(
      {units::NodeId{1}, sim::millis(5), sim::millis(20)});
  NodeFaultModel model(config, kNodes, 1);

  ASSERT_EQ(model.schedule().size(), 2u);
  EXPECT_EQ(model.schedule()[0].kind, TopologyEventKind::kNodeCrash);
  EXPECT_EQ(model.schedule()[1].kind, TopologyEventKind::kNodeRestart);

  EXPECT_TRUE(model.poll(sim::millis(4)).empty());

  const auto crash = model.poll(sim::millis(5));
  ASSERT_EQ(crash.size(), 1u);
  EXPECT_EQ(crash[0].kind, TopologyEventKind::kNodeCrash);
  EXPECT_EQ(crash[0].node, units::NodeId{1});
  EXPECT_EQ(crash[0].at, sim::millis(5));
  // Each transition is handed out once.
  EXPECT_TRUE(model.poll(sim::millis(5)).empty());

  const auto restart = model.poll(sim::millis(25));
  ASSERT_EQ(restart.size(), 1u);
  EXPECT_EQ(restart[0].kind, TopologyEventKind::kNodeRestart);
  EXPECT_EQ(restart[0].node, units::NodeId{1});
  EXPECT_EQ(restart[0].at, sim::millis(20));
  EXPECT_TRUE(model.poll(sim::millis(100)).empty());
}

TEST(NodeFaultModelTest, BlackoutFlipsChannelState) {
  StructuralFaultConfig config;
  config.blackouts.push_back({ChannelId::kA, sim::millis(2), sim::millis(6)});
  NodeFaultModel model(config, kNodes, 1);

  const auto down = model.poll(sim::millis(2));
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0].kind, TopologyEventKind::kChannelDown);
  EXPECT_EQ(down[0].channel, ChannelId::kA);
  const auto up = model.poll(sim::millis(6));
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0].kind, TopologyEventKind::kChannelUp);
  EXPECT_EQ(up[0].channel, ChannelId::kA);
}

TEST(NodeFaultModelTest, OverlappingWindowsCoalesce) {
  // Two overlapping crash windows for one node must not produce a
  // double-crash (the cluster would trace a crash of a node already
  // down, tripping the trace linter's causality rule).
  StructuralFaultConfig config;
  config.crashes.push_back(
      {units::NodeId{0}, sim::millis(1), sim::millis(10)});
  config.crashes.push_back(
      {units::NodeId{0}, sim::millis(5), sim::millis(15)});
  NodeFaultModel model(config, kNodes, 1);

  ASSERT_EQ(model.schedule().size(), 2u);
  EXPECT_EQ(model.schedule()[0].kind, TopologyEventKind::kNodeCrash);
  EXPECT_EQ(model.schedule()[0].at, sim::millis(1));
  EXPECT_EQ(model.schedule()[1].kind, TopologyEventKind::kNodeRestart);
  EXPECT_EQ(model.schedule()[1].at, sim::millis(15));
}

TEST(NodeFaultModelTest, BabbleJamsSlotOnConfiguredChannels) {
  StructuralFaultConfig config;
  BabbleWindow babble;
  babble.babbler = units::NodeId{2};
  babble.slot = units::SlotId{3};
  babble.channel = ChannelId::kA;  // one branch only
  babble.at = sim::millis(1);
  babble.until = sim::millis(4);
  config.babbles.push_back(babble);
  NodeFaultModel model(config, kNodes, 1);

  EXPECT_TRUE(model.slot_jammed(units::SlotId{3}, ChannelId::kA,
                                sim::millis(2)));
  EXPECT_FALSE(model.slot_jammed(units::SlotId{3}, ChannelId::kB,
                                 sim::millis(2)));
  EXPECT_FALSE(model.slot_jammed(units::SlotId{4}, ChannelId::kA,
                                 sim::millis(2)));
  EXPECT_FALSE(model.slot_jammed(units::SlotId{3}, ChannelId::kA,
                                 sim::millis(5)));

  // No channel set: the babbler drives both branches.
  config.babbles[0].channel.reset();
  NodeFaultModel both(config, kNodes, 1);
  EXPECT_TRUE(both.slot_jammed(units::SlotId{3}, ChannelId::kA,
                               sim::millis(2)));
  EXPECT_TRUE(both.slot_jammed(units::SlotId{3}, ChannelId::kB,
                               sim::millis(2)));
}

TEST(NodeFaultModelTest, DriftWindowMarksNodeOutOfSync) {
  StructuralFaultConfig config;
  config.drifts.push_back(
      {units::NodeId{1}, sim::millis(3), sim::millis(7), 1500.0});
  NodeFaultModel model(config, kNodes, 1);

  EXPECT_FALSE(model.node_out_of_sync(units::NodeId{1}, sim::millis(2)));
  EXPECT_TRUE(model.node_out_of_sync(units::NodeId{1}, sim::millis(5)));
  EXPECT_FALSE(model.node_out_of_sync(units::NodeId{0}, sim::millis(5)));
  EXPECT_FALSE(model.node_out_of_sync(units::NodeId{1}, sim::millis(7)));
}

TEST(NodeFaultModelTest, StochasticExpansionIsDeterministicPerSeed) {
  StructuralFaultConfig config;
  config.stochastic_crashes.crashes_per_second = 200.0;
  config.stochastic_crashes.mean_time_to_repair = sim::millis(5);
  config.stochastic_crashes.horizon = sim::millis(100);
  config.stochastic_crashes.num_nodes = 4;
  config.stochastic_blackouts.outages_per_second = 100.0;
  config.stochastic_blackouts.mean_outage = sim::millis(3);
  config.stochastic_blackouts.horizon = sim::millis(100);

  NodeFaultModel a(config, kNodes, 7);
  NodeFaultModel b(config, kNodes, 7);
  NodeFaultModel c(config, kNodes, 8);

  ASSERT_FALSE(a.schedule().empty());
  ASSERT_EQ(a.schedule().size(), b.schedule().size());
  for (std::size_t i = 0; i < a.schedule().size(); ++i) {
    EXPECT_EQ(a.schedule()[i].kind, b.schedule()[i].kind);
    EXPECT_EQ(a.schedule()[i].at, b.schedule()[i].at);
    EXPECT_EQ(a.schedule()[i].node, b.schedule()[i].node);
    EXPECT_EQ(a.schedule()[i].channel, b.schedule()[i].channel);
  }
  // A different seed draws a different history (sizes or times differ).
  bool different = a.schedule().size() != c.schedule().size();
  for (std::size_t i = 0; !different && i < a.schedule().size(); ++i) {
    different = a.schedule()[i].at != c.schedule()[i].at;
  }
  EXPECT_TRUE(different);
}

TEST(NodeFaultModelTest, StochasticEventsNeverDoubleCrash) {
  StructuralFaultConfig config;
  config.stochastic_crashes.crashes_per_second = 500.0;
  config.stochastic_crashes.mean_time_to_repair = sim::millis(10);
  config.stochastic_crashes.horizon = sim::millis(200);
  config.stochastic_crashes.num_nodes = 3;
  NodeFaultModel model(config, kNodes, 11);

  std::vector<bool> down(3, false);
  for (const auto& ev : model.schedule()) {
    if (ev.kind == TopologyEventKind::kNodeCrash) {
      const auto idx = static_cast<std::size_t>(ev.node.value());
      EXPECT_FALSE(down[idx]) << "double crash of node " << ev.node.value();
      down[idx] = true;
    } else if (ev.kind == TopologyEventKind::kNodeRestart) {
      const auto idx = static_cast<std::size_t>(ev.node.value());
      EXPECT_TRUE(down[idx]) << "restart of live node " << ev.node.value();
      down[idx] = false;
    }
  }
}

TEST(NodeFaultModelTest, DescribeNamesEveryFaultClass) {
  StructuralFaultConfig config;
  config.crashes.push_back({units::NodeId{0}, sim::millis(1), sim::millis(2)});
  config.blackouts.push_back({ChannelId::kB, sim::millis(1), sim::millis(2)});
  NodeFaultModel model(config, kNodes, 1);
  const std::string text = model.describe();
  EXPECT_NE(text.find("crash"), std::string::npos);
  EXPECT_NE(text.find("blackout"), std::string::npos);
}

TEST(SilentNodeDetectorTest, FlagsAfterThresholdConsecutiveSilentCycles) {
  SilentNodeDetector det(3, /*silent_cycle_threshold=*/2);

  det.note_expected(units::NodeId{1});
  EXPECT_TRUE(det.on_cycle_end().empty());  // 1 silent cycle: below threshold

  det.note_expected(units::NodeId{1});
  const auto flagged = det.on_cycle_end();
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0], units::NodeId{1});
  EXPECT_TRUE(det.silent(units::NodeId{1}));

  // Flagged exactly once: staying silent does not re-flag.
  det.note_expected(units::NodeId{1});
  EXPECT_TRUE(det.on_cycle_end().empty());
  EXPECT_TRUE(det.silent(units::NodeId{1}));
}

TEST(SilentNodeDetectorTest, ActivityResetsSilenceAndFlag) {
  SilentNodeDetector det(2, 2);
  std::size_t flagged = 0;
  for (int c = 0; c < 2; ++c) {
    det.note_expected(units::NodeId{0});
    flagged += det.on_cycle_end().size();
  }
  ASSERT_TRUE(det.silent(units::NodeId{0}));

  // The node transmits again (restart): the flag clears and the count
  // restarts from zero.
  det.note_expected(units::NodeId{0});
  det.note_activity(units::NodeId{0});
  EXPECT_TRUE(det.on_cycle_end().empty());
  EXPECT_FALSE(det.silent(units::NodeId{0}));

  det.note_expected(units::NodeId{0});
  EXPECT_TRUE(det.on_cycle_end().empty());  // 1 silent cycle again
  det.note_expected(units::NodeId{0});
  const std::size_t redetected = det.on_cycle_end().size();
  EXPECT_EQ(redetected, 1u);  // re-detected after recovery
  EXPECT_EQ(flagged + redetected, 2u);
}

TEST(SilentNodeDetectorTest, UnexpectedNodesAreNeverFlagged) {
  SilentNodeDetector det(2, 1);
  for (int c = 0; c < 5; ++c) {
    EXPECT_TRUE(det.on_cycle_end().empty());
  }
  EXPECT_FALSE(det.silent(units::NodeId{0}));
  EXPECT_FALSE(det.silent(units::NodeId{1}));
}

}  // namespace
}  // namespace coeff::fault
