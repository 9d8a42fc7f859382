#include "flexray/cluster.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace coeff::flexray {
namespace {

using units::CycleIndex;
using units::MinislotId;
using units::SlotId;

/// Scripted policy for driving the cluster in tests.
class ScriptedPolicy : public TransmissionPolicy {
 public:
  std::function<std::optional<TxRequest>(ChannelId, CycleIndex, SlotId)>
      on_static;
  std::function<std::optional<TxRequest>(ChannelId, CycleIndex, SlotId,
                                         MinislotId, std::int64_t)>
      on_dynamic;

  std::vector<TxOutcome> outcomes;
  std::vector<std::int64_t> cycles_started;
  std::vector<std::int64_t> cycles_ended;
  std::vector<TxRequest> declined;

  void on_cycle_start(CycleIndex cycle, sim::Time) override {
    cycles_started.push_back(cycle.value());
  }
  std::optional<TxRequest> static_slot(ChannelId channel, CycleIndex cycle,
                                       SlotId slot) override {
    return on_static ? on_static(channel, cycle, slot) : std::nullopt;
  }
  std::optional<TxRequest> dynamic_slot(ChannelId channel, CycleIndex cycle,
                                        SlotId counter, MinislotId minislot,
                                        std::int64_t remaining) override {
    return on_dynamic ? on_dynamic(channel, cycle, counter, minislot, remaining)
                      : std::nullopt;
  }
  void on_tx_complete(const TxOutcome& outcome) override {
    outcomes.push_back(outcome);
  }
  void on_dynamic_declined(ChannelId, CycleIndex,
                           const TxRequest& request) override {
    declined.push_back(request);
  }
  void on_cycle_end(CycleIndex cycle, sim::Time) override {
    cycles_ended.push_back(cycle.value());
  }
};

ClusterConfig small_config() {
  ClusterConfig cfg;
  cfg.g_macro_per_cycle = units::Macroticks{1000};
  cfg.g_number_of_static_slots = 4;
  cfg.gd_static_slot = units::Macroticks{40};
  cfg.g_number_of_minislots = 20;
  cfg.gd_minislot = units::Macroticks{8};
  cfg.num_nodes = 2;
  cfg.validate();
  return cfg;
}

TxRequest req(FrameId id, std::int64_t bits, std::uint64_t instance = 1) {
  TxRequest r;
  r.instance = instance;
  r.frame_id = id;
  r.sender = units::NodeId{0};
  r.payload_bits = bits;
  return r;
}

TEST(ClusterTest, RunsCycleLifecycle) {
  sim::Engine engine;
  ScriptedPolicy policy;
  Cluster cluster(engine, small_config(), policy, nullptr);
  cluster.run_cycles(3);
  EXPECT_EQ(policy.cycles_started, (std::vector<std::int64_t>{0, 1, 2}));
  EXPECT_EQ(policy.cycles_ended, (std::vector<std::int64_t>{0, 1, 2}));
  EXPECT_EQ(cluster.cycles_run(), 3);
  EXPECT_EQ(engine.now(), sim::millis(3));
}

TEST(ClusterTest, StaticSlotTransmissionTimesAndSegments) {
  sim::Engine engine;
  ScriptedPolicy policy;
  policy.on_static = [](ChannelId channel, CycleIndex,
                        SlotId slot) -> std::optional<TxRequest> {
    if (channel == ChannelId::kA && slot == SlotId{2}) {
      return req(FrameId{2}, 100);
    }
    return std::nullopt;
  };
  Cluster cluster(engine, small_config(), policy, nullptr);
  cluster.run_cycles(2);
  ASSERT_EQ(policy.outcomes.size(), 2u);
  EXPECT_EQ(policy.outcomes[0].start, sim::micros(40));  // slot 2 of cycle 0
  EXPECT_EQ(policy.outcomes[0].end, sim::micros(80));    // full slot duration
  EXPECT_EQ(policy.outcomes[0].segment, Segment::kStatic);
  EXPECT_EQ(policy.outcomes[1].start, sim::millis(1) + sim::micros(40));
  EXPECT_EQ(policy.outcomes[0].channel, ChannelId::kA);
}

TEST(ClusterTest, BothChannelsOfferedEachStaticSlot) {
  sim::Engine engine;
  ScriptedPolicy policy;
  int offers_a = 0, offers_b = 0;
  policy.on_static = [&](ChannelId channel, CycleIndex,
                         SlotId) -> std::optional<TxRequest> {
    (channel == ChannelId::kA ? offers_a : offers_b)++;
    return std::nullopt;
  };
  Cluster cluster(engine, small_config(), policy, nullptr);
  cluster.run_cycles(1);
  EXPECT_EQ(offers_a, 4);
  EXPECT_EQ(offers_b, 4);
}

TEST(ClusterTest, StaticFrameIdMustMatchSlot) {
  sim::Engine engine;
  ScriptedPolicy policy;
  policy.on_static = [](ChannelId, CycleIndex,
                        SlotId) -> std::optional<TxRequest> {
    // Wrong id for every slot except 7 (doesn't exist).
    return req(FrameId{7}, 100);
  };
  Cluster cluster(engine, small_config(), policy, nullptr);
  EXPECT_THROW(cluster.run_cycles(1), std::logic_error);
}

TEST(ClusterTest, StaticPayloadBeyondCapacityRejected) {
  sim::Engine engine;
  ScriptedPolicy policy;
  policy.on_static = [](ChannelId, CycleIndex,
                        SlotId slot) -> std::optional<TxRequest> {
    if (slot == SlotId{1}) return req(FrameId{1}, 1'000'000);
    return std::nullopt;
  };
  Cluster cluster(engine, small_config(), policy, nullptr);
  EXPECT_THROW(cluster.run_cycles(1), std::logic_error);
}

TEST(ClusterTest, DynamicSlotCountersStartAfterStaticSlots) {
  sim::Engine engine;
  ScriptedPolicy policy;
  std::vector<std::int64_t> counters;
  policy.on_dynamic = [&](ChannelId channel, CycleIndex, SlotId counter,
                          MinislotId,
                          std::int64_t) -> std::optional<TxRequest> {
    if (channel == ChannelId::kA) counters.push_back(counter.value());
    return std::nullopt;
  };
  Cluster cluster(engine, small_config(), policy, nullptr);
  cluster.run_cycles(1);
  // 20 empty minislots -> counters 5..24 on channel A.
  ASSERT_EQ(counters.size(), 20u);
  EXPECT_EQ(counters.front(), 5);
  EXPECT_EQ(counters.back(), 24);
}

TEST(ClusterTest, DynamicTransmissionConsumesMinislots) {
  sim::Engine engine;
  ScriptedPolicy policy;
  std::vector<std::int64_t> minislots;
  policy.on_dynamic = [&](ChannelId channel, CycleIndex, SlotId counter,
                          MinislotId minislot,
                          std::int64_t) -> std::optional<TxRequest> {
    if (channel != ChannelId::kA) return std::nullopt;
    minislots.push_back(minislot.value());
    if (counter == SlotId{5}) {
      // 10 Mb/s, 8 us minislot = 80 bits; 160 bits -> 2 + 1 idle = 3.
      return req(FrameId{5}, 160);
    }
    return std::nullopt;
  };
  Cluster cluster(engine, small_config(), policy, nullptr);
  cluster.run_cycles(1);
  // First slot consumed 3 minislots, so the second offer is at minislot 3.
  ASSERT_GE(minislots.size(), 2u);
  EXPECT_EQ(minislots[0], 0);
  EXPECT_EQ(minislots[1], 3);
}

TEST(ClusterTest, DynamicRespectsLatestTx) {
  auto cfg = small_config();
  cfg.p_latest_tx = MinislotId{5};
  sim::Engine engine;
  ScriptedPolicy policy;
  int granted = 0;
  policy.on_dynamic = [&](ChannelId channel, CycleIndex, SlotId, MinislotId,
                          std::int64_t) -> std::optional<TxRequest> {
    if (channel != ChannelId::kA) return std::nullopt;
    return req(FrameId{0}, 80);  // frame id irrelevant for dynamic
  };
  Cluster cluster(engine, cfg, policy, nullptr);
  cluster.run_cycles(1);
  granted = static_cast<int>(policy.outcomes.size());
  // Starts allowed only in minislots 0..4 -> with 2-minislot slots at
  // most 3 transmissions, and declines reported afterwards.
  EXPECT_LE(granted, 3);
  EXPECT_FALSE(policy.declined.empty());
}

TEST(ClusterTest, DynamicTooLargeForRemainderIsDeclined) {
  sim::Engine engine;
  ScriptedPolicy policy;
  policy.on_dynamic = [&](ChannelId channel, CycleIndex, SlotId, MinislotId,
                          std::int64_t) -> std::optional<TxRequest> {
    if (channel != ChannelId::kA) return std::nullopt;
    return req(FrameId{0}, 100'000);  // larger than the whole dynamic segment
  };
  Cluster cluster(engine, small_config(), policy, nullptr);
  cluster.run_cycles(1);
  EXPECT_TRUE(policy.outcomes.empty());
  EXPECT_EQ(policy.declined.size(), 20u);  // every minislot walks past it
}

TEST(ClusterTest, CorruptionHookControlsOutcomes) {
  sim::Engine engine;
  ScriptedPolicy policy;
  policy.on_static = [](ChannelId channel, CycleIndex,
                        SlotId slot) -> std::optional<TxRequest> {
    if (slot == SlotId{1} && channel == ChannelId::kA) {
      return req(FrameId{1}, 100);
    }
    return std::nullopt;
  };
  int verdicts = 0;
  auto corrupt_all = [&](const TxRequest&, ChannelId, sim::Time) {
    ++verdicts;
    return true;
  };
  Cluster cluster(engine, small_config(), policy, corrupt_all);
  cluster.run_cycles(2);
  EXPECT_EQ(verdicts, 2);
  for (const auto& out : policy.outcomes) EXPECT_TRUE(out.corrupted);
  EXPECT_EQ(cluster.channel(ChannelId::kA).stats().corrupted_frames, 2);
}

TEST(ClusterTest, ChannelStatsAccumulate) {
  sim::Engine engine;
  ScriptedPolicy policy;
  policy.on_static = [](ChannelId channel, CycleIndex,
                        SlotId slot) -> std::optional<TxRequest> {
    if (slot.value() <= 2 && channel == ChannelId::kA) {
      auto r = req(units::to_frame_id(slot), 100);
      r.retransmission = slot == SlotId{2};
      return r;
    }
    return std::nullopt;
  };
  Cluster cluster(engine, small_config(), policy, nullptr);
  cluster.run_cycles(5);
  const auto& stats = cluster.channel(ChannelId::kA).stats();
  EXPECT_EQ(stats.frames, 10);
  EXPECT_EQ(stats.retransmission_frames, 5);
  EXPECT_EQ(stats.payload_bits, 1000);
  EXPECT_EQ(stats.busy_static, sim::micros(40) * 10);
  EXPECT_EQ(cluster.channel(ChannelId::kB).stats().frames, 0);
}

TEST(ClusterTest, EngineEventsDeliveredAtSlotBoundaries) {
  sim::Engine engine;
  ScriptedPolicy policy;
  sim::Time fired_at;
  // Schedule an "arrival" mid-cycle; it must run before later slots ask
  // the policy for content.
  engine.schedule_at(sim::micros(50), [&] { fired_at = engine.now(); });
  Cluster cluster(engine, small_config(), policy, nullptr);
  cluster.run_cycles(1);
  EXPECT_EQ(fired_at, sim::micros(50));
}

TEST(ClusterTest, RunUntilCoversWholeCycles) {
  sim::Engine engine;
  ScriptedPolicy policy;
  Cluster cluster(engine, small_config(), policy, nullptr);
  cluster.run_until(sim::micros(1500));  // 1.5 cycles -> runs cycles 0 and 1
  EXPECT_EQ(cluster.cycles_run(), 2);
}

/// Jams static slot 2 on channel A during [0, 2 ms) and drifts node 1
/// out of sync during cycle 1 (the config's cycles are 1 ms long).
class StubFaults : public StructuralFaultProvider {
 public:
  std::vector<TopologyEvent> poll(sim::Time) override { return {}; }
  [[nodiscard]] bool node_down(units::NodeId) const override { return false; }
  [[nodiscard]] bool channel_down(ChannelId) const override { return false; }
  [[nodiscard]] bool slot_jammed(SlotId slot, ChannelId channel,
                                 sim::Time at) const override {
    return slot == SlotId{2} && channel == ChannelId::kA &&
           at < sim::millis(2);
  }
  [[nodiscard]] bool node_out_of_sync(units::NodeId node,
                                      sim::Time at) const override {
    return node == units::NodeId{1} && at >= sim::millis(1) &&
           at < sim::millis(2);
  }
};

TEST(ClusterTest, StructuralCorruptionRidesTheBatchedWalk) {
  sim::Engine engine;
  ScriptedPolicy policy;
  policy.on_static = [](ChannelId channel, CycleIndex,
                        SlotId slot) -> std::optional<TxRequest> {
    if (channel == ChannelId::kA && slot == SlotId{2}) {
      return req(FrameId{2}, 100);
    }
    return std::nullopt;
  };
  policy.on_dynamic = [](ChannelId channel, CycleIndex, SlotId counter,
                         MinislotId, std::int64_t) -> std::optional<TxRequest> {
    if (channel != ChannelId::kA || counter != SlotId{5}) return std::nullopt;
    TxRequest r = req(FrameId{5}, 80, /*instance=*/2);
    r.sender = units::NodeId{1};
    return r;
  };
  int per_frame_static = 0;
  int per_frame_dynamic = 0;
  auto count_verdicts = [&](const TxRequest& r, ChannelId, sim::Time) {
    ++(r.frame_id == FrameId{2} ? per_frame_static : per_frame_dynamic);
    return false;
  };
  Cluster cluster(engine, small_config(), policy, count_verdicts);
  int batch_calls = 0;
  cluster.set_batch_corruption(
      [&](const VerdictQuery*, std::size_t n, bool* out) {
        ++batch_calls;
        for (std::size_t i = 0; i < n; ++i) out[i] = false;  // clean
      });
  StubFaults faults;
  cluster.set_fault_provider(&faults);
  cluster.run_cycles(3);

  EXPECT_EQ(batch_calls, 3);  // the batched walk ran in every cycle
  EXPECT_EQ(per_frame_static, 0);
  EXPECT_EQ(per_frame_dynamic, 3);
  std::vector<bool> static_corrupted;
  std::vector<bool> dynamic_corrupted;
  for (const TxOutcome& out : policy.outcomes) {
    (out.segment == Segment::kStatic ? static_corrupted : dynamic_corrupted)
        .push_back(out.corrupted);
  }
  EXPECT_EQ(static_corrupted, (std::vector<bool>{true, true, false}));
  EXPECT_EQ(dynamic_corrupted, (std::vector<bool>{false, true, false}));
  EXPECT_EQ(cluster.channel(ChannelId::kA).stats().frames, 6);
  EXPECT_EQ(cluster.channel(ChannelId::kA).stats().corrupted_frames, 3);
  EXPECT_EQ(cluster.channel(ChannelId::kB).stats().frames, 0);
}

TEST(ClusterTest, ElapsedCapacityCounters) {
  sim::Engine engine;
  ScriptedPolicy policy;
  Cluster cluster(engine, small_config(), policy, nullptr);
  cluster.run_cycles(3);
  EXPECT_EQ(cluster.static_slots_elapsed(), 3 * 4 * 2);
  EXPECT_EQ(cluster.dynamic_minislots_elapsed(), 3 * 20 * 2);
}

}  // namespace
}  // namespace coeff::flexray
