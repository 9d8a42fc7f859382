#include "fault/monitor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

namespace coeff::fault {
namespace {

using flexray::ChannelId;

ReliabilityMonitorOptions small_window() {
  ReliabilityMonitorOptions opt;
  opt.window_cycles = 4;
  opt.trigger_factor = 5.0;
  opt.min_window_frames = 8;
  opt.cooldown_cycles = 2;
  return opt;
}

/// One cycle of traffic: `frames` per channel, `bad` of them corrupted.
void feed_cycle(ReliabilityMonitor& mon, int frames, int bad,
                std::int64_t bits = 1000) {
  for (const auto ch : {ChannelId::kA, ChannelId::kB}) {
    for (int i = 0; i < frames; ++i) mon.record_tx(ch, bits, i < bad);
  }
}

TEST(MonitorTest, EstimateInvertsFrameErrorLaw) {
  // 1 corrupted frame in 100 at 1000 bits: rate 0.01, so
  // ber = 1 - (1 - 0.01)^(1/1000) ~ 1.005e-5.
  ReliabilityMonitor mon(1e-7, small_window());
  feed_cycle(mon, 50, 1);  // 100 frames pooled, 2 corrupted -> rate 0.02
  const double expected = -std::expm1(std::log1p(-0.02) / 1000.0);
  EXPECT_NEAR(mon.estimated_ber(), expected, 1e-12);
  EXPECT_EQ(mon.window_frames(), 100);
}

TEST(MonitorTest, WorstChannelEstimateIgnoresHealthyChannel) {
  // A burst confined to channel A must not be halved by pooling with a
  // clean channel B.
  ReliabilityMonitor mon(1e-7, small_window());
  for (int i = 0; i < 100; ++i) mon.record_tx(ChannelId::kA, 1000, i < 10);
  for (int i = 0; i < 100; ++i) mon.record_tx(ChannelId::kB, 1000, false);
  EXPECT_DOUBLE_EQ(mon.estimated_ber(ChannelId::kB), 0.0);
  EXPECT_GT(mon.estimated_ber(ChannelId::kA), 0.0);
  EXPECT_DOUBLE_EQ(mon.worst_channel_estimate(),
                   mon.estimated_ber(ChannelId::kA));
  EXPECT_LT(mon.estimated_ber(), mon.worst_channel_estimate());
}

TEST(MonitorTest, DetectsDriftAboveTriggerFactor) {
  // Planned 1e-7, trigger at 5e-7; a 2% frame error rate at 1000 bits
  // estimates ~2e-5 — far past the threshold.
  ReliabilityMonitor mon(1e-7, small_window());
  feed_cycle(mon, 50, 1);
  EXPECT_TRUE(mon.on_cycle_end());
  EXPECT_GT(mon.worst_channel_estimate(), 5.0 * mon.planned_ber());
}

TEST(MonitorTest, CleanTrafficNeverTriggers) {
  ReliabilityMonitor mon(1e-7, small_window());
  int detections = 0;
  for (int c = 0; c < 20; ++c) {
    feed_cycle(mon, 50, 0);
    if (mon.on_cycle_end()) ++detections;
  }
  EXPECT_EQ(detections, 0);
  EXPECT_DOUBLE_EQ(mon.estimated_ber(), 0.0);
}

TEST(MonitorTest, MinWindowFramesGatesDetection) {
  // Corruption rate is huge but only 4 frames (< min 8) are in the
  // window: the estimate is not trusted yet.
  ReliabilityMonitor mon(1e-7, small_window());
  feed_cycle(mon, 2, 2);
  EXPECT_FALSE(mon.on_cycle_end());
  // Another cycle reaches 8 frames; now it fires.
  feed_cycle(mon, 2, 2);
  EXPECT_TRUE(mon.on_cycle_end());
}

TEST(MonitorTest, CooldownSuppressesRedetection) {
  ReliabilityMonitor mon(1e-7, small_window());
  feed_cycle(mon, 50, 1);
  int detections = mon.on_cycle_end() ? 1 : 0;
  ASSERT_EQ(detections, 1);
  mon.note_replanned(2e-5);
  // Same corruption level keeps flowing; the first cooldown_cycles=2
  // boundaries must stay quiet even though the estimate is unchanged.
  // After the cooldown the baseline is the re-planned 2e-5, and the
  // observed ~2e-5 is below 5 * 2e-5: still quiet, by threshold now.
  for (int c = 0; c < 3; ++c) {
    feed_cycle(mon, 50, 1);
    if (mon.on_cycle_end()) ++detections;
  }
  EXPECT_EQ(detections, 1);
  EXPECT_DOUBLE_EQ(mon.planned_ber(), 2e-5);
}

TEST(MonitorTest, WindowEvictsOldCycles) {
  // A corrupted burst ages out after window_cycles clean cycles.
  ReliabilityMonitor mon(1e-7, small_window());
  feed_cycle(mon, 10, 10);  // fully corrupted cycle
  (void)mon.on_cycle_end();
  for (int c = 0; c < 4; ++c) {
    feed_cycle(mon, 10, 0);
    (void)mon.on_cycle_end();
  }
  // Window holds the last 4 cycles, all clean.
  EXPECT_EQ(mon.window_frames(), 80);
  EXPECT_DOUBLE_EQ(mon.estimated_ber(), 0.0);
}

TEST(MonitorTest, StarvedChannelHasNoEstimate) {
  // A blacked-out channel records zero verdicts. That is absence of
  // evidence, not evidence of a perfect wire: channel_estimate must be
  // empty and the defined fallback is the planned BER.
  ReliabilityMonitor mon(1e-5, small_window());
  for (int i = 0; i < 50; ++i) mon.record_tx(ChannelId::kB, 1000, i < 5);
  EXPECT_TRUE(mon.starved(ChannelId::kA));
  EXPECT_FALSE(mon.starved(ChannelId::kB));
  EXPECT_FALSE(mon.channel_estimate(ChannelId::kA).has_value());
  ASSERT_TRUE(mon.channel_estimate(ChannelId::kB).has_value());
  EXPECT_DOUBLE_EQ(mon.estimated_ber(ChannelId::kA), 1e-5);
  EXPECT_GT(mon.estimated_ber(ChannelId::kB), 1e-5);
}

TEST(MonitorTest, WorstChannelSkipsStarvedChannels) {
  // Only channel B has samples; the worst-channel estimate must come
  // from B alone — the starved channel neither drags the estimate to
  // the planned baseline nor fakes a clean zero.
  ReliabilityMonitor mon(1e-5, small_window());
  for (int i = 0; i < 100; ++i) mon.record_tx(ChannelId::kB, 1000, false);
  EXPECT_DOUBLE_EQ(mon.worst_channel_estimate(), 0.0);

  for (int i = 0; i < 10; ++i) mon.record_tx(ChannelId::kB, 1000, true);
  EXPECT_DOUBLE_EQ(mon.worst_channel_estimate(),
                   *mon.channel_estimate(ChannelId::kB));
}

TEST(MonitorTest, FullyStarvedWindowFallsBackToPlan) {
  // No traffic at all (total blackout): every estimate that has a
  // defined fallback reports the planned BER; nothing divides by zero.
  ReliabilityMonitor mon(1e-5, small_window());
  int detections = 0;
  for (int c = 0; c < 6; ++c) {
    if (mon.on_cycle_end()) ++detections;
  }
  EXPECT_EQ(detections, 0);
  EXPECT_TRUE(mon.starved(ChannelId::kA));
  EXPECT_TRUE(mon.starved(ChannelId::kB));
  EXPECT_DOUBLE_EQ(mon.worst_channel_estimate(), 1e-5);
  EXPECT_DOUBLE_EQ(mon.estimated_ber(ChannelId::kA), 1e-5);
  EXPECT_DOUBLE_EQ(mon.estimated_ber(ChannelId::kB), 1e-5);
  EXPECT_DOUBLE_EQ(mon.drift_ratio(), 1.0);
}

TEST(MonitorTest, ChannelRecoveryRestoresEstimate) {
  // Traffic returns after a starved window: the estimate picks the new
  // samples up immediately.
  auto opt = small_window();
  ReliabilityMonitor mon(1e-7, opt);
  for (int c = 0; c < opt.window_cycles + 1; ++c) (void)mon.on_cycle_end();
  ASSERT_TRUE(mon.starved(ChannelId::kA));
  for (int i = 0; i < 10; ++i) mon.record_tx(ChannelId::kA, 1000, false);
  EXPECT_FALSE(mon.starved(ChannelId::kA));
  EXPECT_DOUBLE_EQ(mon.estimated_ber(ChannelId::kA), 0.0);
}

TEST(MonitorTest, HysteresisLatchEntersAtTriggerFactor) {
  // 2% frame errors at 1000 bits estimate ~2e-5 against planned 1e-7:
  // ratio ~200, far past trigger_factor=5 — the ratio the mode protocol
  // reads must show it from the first cycle boundary on.
  ReliabilityMonitor mon(1e-7, small_window());
  EXPECT_DOUBLE_EQ(mon.drift_ratio(), 1.0);
  feed_cycle(mon, 50, 1);
  (void)mon.on_cycle_end();
  EXPECT_GT(mon.drift_ratio(), 5.0);
  EXPECT_DOUBLE_EQ(mon.drift_ratio(),
                   mon.worst_channel_estimate() / mon.planned_ber());
}

TEST(MonitorTest, HysteresisLatchIgnoresReplanCooldown) {
  // The one-shot detection return is cooldown-gated, but the drift
  // ratio is not: the mode protocol has its own dwell damping and must
  // keep seeing the drift while the re-planner is cooling down.
  ReliabilityMonitor mon(1e-7, small_window());
  feed_cycle(mon, 50, 1);
  ASSERT_TRUE(mon.on_cycle_end());
  mon.note_replanned(1e-7);  // baseline kept: drift ratio stays high
  feed_cycle(mon, 50, 1);
  EXPECT_FALSE(mon.on_cycle_end());  // cooldown suppresses redetection
  EXPECT_GT(mon.drift_ratio(), 5.0);  // ...but the ratio still shows it
}

TEST(MonitorTest, InvalidOptionsThrow) {
  ReliabilityMonitorOptions opt;
  EXPECT_THROW(ReliabilityMonitor(1.5, opt), std::invalid_argument);
  opt.window_cycles = 0;
  EXPECT_THROW(ReliabilityMonitor(1e-7, opt), std::invalid_argument);
  opt = ReliabilityMonitorOptions{};
  opt.trigger_factor = 1.0;  // must exceed 1
  EXPECT_THROW(ReliabilityMonitor(1e-7, opt), std::invalid_argument);
  opt = ReliabilityMonitorOptions{};
  opt.min_window_frames = 0;
  EXPECT_THROW(ReliabilityMonitor(1e-7, opt), std::invalid_argument);
  opt = ReliabilityMonitorOptions{};
  opt.cooldown_cycles = -1;
  EXPECT_THROW(ReliabilityMonitor(1e-7, opt), std::invalid_argument);
  // Any trigger factor above 1 is valid, as --monitor-factor promises.
  opt = ReliabilityMonitorOptions{};
  opt.trigger_factor = 1.5;
  EXPECT_NO_THROW(ReliabilityMonitor(1e-7, opt));
  ReliabilityMonitor ok(1e-7, ReliabilityMonitorOptions{});
  EXPECT_THROW(ok.note_replanned(-1.0), std::invalid_argument);
}

}  // namespace
}  // namespace coeff::fault
