#include "fault/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace coeff::fault {

namespace {

void require(bool ok, const char* option, double value) {
  if (ok) return;
  char msg[128];
  std::snprintf(msg, sizeof msg, "ReliabilityMonitor: %s = %g invalid", option,
                value);
  throw std::invalid_argument(msg);
}

}  // namespace

ReliabilityMonitor::ReliabilityMonitor(double planned_ber,
                                       const ReliabilityMonitorOptions& opt)
    : planned_ber_(planned_ber), opt_(opt) {
  require(planned_ber >= 0.0 && planned_ber <= 1.0, "planned_ber",
          planned_ber);
  require(opt.window_cycles > 0, "window_cycles", opt.window_cycles);
  require(opt.trigger_factor > 1.0, "trigger_factor", opt.trigger_factor);
  require(opt.min_window_frames > 0, "min_window_frames",
          static_cast<double>(opt.min_window_frames));
  require(opt.cooldown_cycles >= 0, "cooldown_cycles", opt.cooldown_cycles);
}

void ReliabilityMonitor::record_tx(flexray::ChannelId channel,
                                   std::int64_t payload_bits, bool corrupted) {
  const auto ch = static_cast<std::size_t>(channel);
  ++current_.frames[ch];
  ++totals_.frames[ch];
  current_.bits[ch] += payload_bits;
  totals_.bits[ch] += payload_bits;
  if (corrupted) {
    ++current_.corrupted[ch];
    ++totals_.corrupted[ch];
  }
}

bool ReliabilityMonitor::on_cycle_end() {
  window_.push_back(current_);
  current_ = Bucket{};
  if (window_.size() > static_cast<std::size_t>(opt_.window_cycles)) {
    const Bucket& old = window_.front();
    for (std::size_t ch = 0; ch < flexray::kNumChannels; ++ch) {
      totals_.frames[ch] -= old.frames[ch];
      totals_.corrupted[ch] -= old.corrupted[ch];
      totals_.bits[ch] -= old.bits[ch];
    }
    window_.pop_front();
  }
  // The mode machine's input. Deliberately ignores the re-plan
  // cooldown: the mode protocol has its own dwell damping, and hiding a
  // live burst from it for cooldown_cycles would delay shedding exactly
  // when it is needed.
  if (window_frames() >= opt_.min_window_frames && planned_ber_ > 0.0) {
    drift_ratio_ = worst_channel_estimate() / planned_ber_;
  } else {
    drift_ratio_ = 1.0;
  }

  if (cooldown_remaining_ > 0) {
    --cooldown_remaining_;
    return false;
  }
  if (window_frames() < opt_.min_window_frames) return false;
  return worst_channel_estimate() > planned_ber_ * opt_.trigger_factor;
}

void ReliabilityMonitor::note_replanned(double new_planned_ber) {
  require(new_planned_ber >= 0.0 && new_planned_ber <= 1.0, "new_planned_ber",
          new_planned_ber);
  planned_ber_ = new_planned_ber;
  cooldown_remaining_ = opt_.cooldown_cycles;
}

double ReliabilityMonitor::invert_frame_error_rate(double rate,
                                                   double mean_bits) {
  if (rate <= 0.0 || mean_bits <= 0.0) return 0.0;
  if (rate >= 1.0) return 1.0;
  // p = 1 - (1 - ber)^W  =>  ber = 1 - (1 - p)^(1/W), via log1p/expm1
  // so estimates from rare corruption events keep their precision.
  return -std::expm1(std::log1p(-rate) / mean_bits);
}

double ReliabilityMonitor::estimate(std::int64_t frames,
                                    std::int64_t corrupted,
                                    std::int64_t bits) const {
  if (frames <= 0) return 0.0;
  const double rate =
      static_cast<double>(corrupted) / static_cast<double>(frames);
  const double mean_bits =
      static_cast<double>(bits) / static_cast<double>(frames);
  return invert_frame_error_rate(rate, mean_bits);
}

double ReliabilityMonitor::estimated_ber() const {
  std::int64_t frames = 0, corrupted = 0, bits = 0;
  for (std::size_t ch = 0; ch < flexray::kNumChannels; ++ch) {
    frames += totals_.frames[ch];
    corrupted += totals_.corrupted[ch];
    bits += totals_.bits[ch];
  }
  return estimate(frames, corrupted, bits);
}

std::optional<double> ReliabilityMonitor::channel_estimate(
    flexray::ChannelId channel) const {
  const auto ch = static_cast<std::size_t>(channel);
  if (totals_.frames[ch] <= 0) return std::nullopt;
  return estimate(totals_.frames[ch], totals_.corrupted[ch], totals_.bits[ch]);
}

bool ReliabilityMonitor::starved(flexray::ChannelId channel) const {
  return totals_.frames[static_cast<std::size_t>(channel)] <= 0;
}

double ReliabilityMonitor::estimated_ber(flexray::ChannelId channel) const {
  return channel_estimate(channel).value_or(planned_ber_);
}

double ReliabilityMonitor::worst_channel_estimate() const {
  std::optional<double> worst;
  for (std::size_t ch = 0; ch < flexray::kNumChannels; ++ch) {
    const auto est = channel_estimate(static_cast<flexray::ChannelId>(ch));
    if (est && (!worst || *est > *worst)) worst = est;
  }
  return worst.value_or(planned_ber_);
}

std::int64_t ReliabilityMonitor::window_frames() const {
  std::int64_t frames = 0;
  for (std::size_t ch = 0; ch < flexray::kNumChannels; ++ch) {
    frames += totals_.frames[ch];
  }
  return frames;
}

}  // namespace coeff::fault
