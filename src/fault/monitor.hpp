// Runtime reliability monitor: BER drift detection over a sliding
// window of communication cycles.
//
// The offline retransmission plan (§III-E) is only as good as the BER
// it was solved for. The monitor watches every wire verdict, keeps
// per-channel frame/corruption/bit counts over the last `window_cycles`
// cycles, and estimates the channel BER by inverting the frame-failure
// law p = 1 - (1 - ber)^bits at the window's mean frame size. When the
// estimate exceeds the planned BER by `trigger_factor` (with at least
// `min_window_frames` samples and the re-plan cooldown elapsed), the
// owner is told to re-plan; CoEfficientScheduler then re-runs the
// differentiated solver against the estimate and swaps the plan at the
// cycle boundary.
//
// Purely observational and allocation-light: deterministic given the
// verdict stream, so monitored runs stay reproducible under a fixed
// seed and safe to fan out across sweep workers.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>

#include "flexray/bus.hpp"
#include "sim/time.hpp"

namespace coeff::fault {

struct ReliabilityMonitorOptions {
  /// Sliding-window length in communication cycles.
  int window_cycles = 200;
  /// Drift threshold: estimated BER > planned BER * trigger_factor.
  double trigger_factor = 5.0;
  /// Minimum frames in the window before the estimate is trusted.
  std::int64_t min_window_frames = 100;
  /// Cycles after a re-plan during which detection is suppressed (the
  /// new plan needs a window of its own evidence).
  int cooldown_cycles = 100;
};

class ReliabilityMonitor {
 public:
  ReliabilityMonitor(double planned_ber, const ReliabilityMonitorOptions& opt);

  /// Feed one wire verdict (every transmission, both segments).
  void record_tx(flexray::ChannelId channel, std::int64_t payload_bits,
                 bool corrupted);

  /// Roll the window at a cycle boundary. True when drift is detected
  /// (see class comment); the caller is expected to re-plan and then
  /// call note_replanned.
  [[nodiscard]] bool on_cycle_end();

  /// Accept the swapped plan: `new_planned_ber` becomes the baseline
  /// and the cooldown restarts.
  void note_replanned(double new_planned_ber);

  [[nodiscard]] double planned_ber() const { return planned_ber_; }
  /// Window BER estimate pooled over both channels (0 when no samples).
  [[nodiscard]] double estimated_ber() const;
  /// Per-channel window estimate, or nullopt when the channel produced
  /// zero verdicts in the window (starved — the immediate symptom of a
  /// blackout). A starved channel has *no evidence*, which is not the
  /// same as evidence of ber = 0.
  [[nodiscard]] std::optional<double> channel_estimate(
      flexray::ChannelId channel) const;
  /// True when `channel` has zero verdicts in the window.
  [[nodiscard]] bool starved(flexray::ChannelId channel) const;
  /// Per-channel estimate with the defined no-estimate fallback: a
  /// starved channel reports the planned BER (no evidence => no drift),
  /// never a 0/0-derived zero that would mask the outage.
  [[nodiscard]] double estimated_ber(flexray::ChannelId channel) const;
  /// Max over the channels that *have* estimates: a burst confined to
  /// one channel is not diluted by the healthy one, and a starved
  /// channel neither drags the estimate down nor fakes perfection.
  /// Detection and re-planning use this (the plan must cover the worse
  /// observable channel). planned_ber() when every channel is starved.
  [[nodiscard]] double worst_channel_estimate() const;
  [[nodiscard]] std::int64_t window_frames() const;

  /// Last cycle's worst-channel estimate / planned BER (1.0 until the
  /// window holds min_window_frames samples). Set by every
  /// on_cycle_end, re-plan cooldown or not: it is the input of
  /// sched::ModeManager::evaluate, whose ModePolicy holds the mode
  /// protocol's own hysteresis (exit threshold, dwell, recovery).
  [[nodiscard]] double drift_ratio() const { return drift_ratio_; }

 private:
  struct Bucket {
    std::array<std::int64_t, flexray::kNumChannels> frames{};
    std::array<std::int64_t, flexray::kNumChannels> corrupted{};
    std::array<std::int64_t, flexray::kNumChannels> bits{};
  };

  /// Invert p = 1 - (1 - ber)^bits at the window's mean frame size.
  [[nodiscard]] static double invert_frame_error_rate(double rate,
                                                      double mean_bits);
  [[nodiscard]] double estimate(std::int64_t frames, std::int64_t corrupted,
                                std::int64_t bits) const;

  double planned_ber_;
  ReliabilityMonitorOptions opt_;
  Bucket current_;               ///< the cycle in progress
  std::deque<Bucket> window_;    ///< closed cycles, newest at the back
  Bucket totals_;                ///< running sums over window_ + current_
  std::int64_t cooldown_remaining_ = 0;
  double drift_ratio_ = 1.0;
};

}  // namespace coeff::fault
