#include "fault/structural.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "sim/random.hpp"

namespace coeff::fault {

namespace {

void require(bool ok, const char* what) {
  if (!ok) {
    throw std::invalid_argument(std::string("StructuralFaultConfig: ") + what);
  }
}

/// Throws unless `node` is one of the cluster's `num_nodes` nodes.
void require_node(units::NodeId node, int num_nodes, const char* role) {
  if (node.value() < 0 || node.value() >= num_nodes) {
    throw std::invalid_argument(
        std::string("StructuralFaultConfig: ") + role + " node " +
        std::to_string(node.value()) + " outside the cluster's " +
        std::to_string(num_nodes) + " nodes");
  }
}

/// Merge overlapping/adjacent [at, until) windows per key so the event
/// schedule never emits a crash for an already-crashed node (the trace
/// linter treats double-down as a causality violation).
template <typename Window>
std::vector<Window> merge_windows(std::vector<Window> windows,
                                  sim::Time Window::* start,
                                  sim::Time Window::* end) {
  std::sort(windows.begin(), windows.end(),
            [&](const Window& a, const Window& b) {
              return a.*start < b.*start;
            });
  std::vector<Window> merged;
  for (const Window& w : windows) {
    if (!merged.empty() && w.*start <= merged.back().*end) {
      merged.back().*end = std::max(merged.back().*end, w.*end);
    } else {
      merged.push_back(w);
    }
  }
  return merged;
}

}  // namespace

bool StructuralFaultConfig::empty() const {
  return crashes.empty() && blackouts.empty() && babbles.empty() &&
         drifts.empty() && stochastic_crashes.crashes_per_second <= 0.0 &&
         stochastic_blackouts.outages_per_second <= 0.0;
}

void StructuralFaultConfig::validate(int num_nodes) const {
  for (const NodeCrashWindow& w : crashes) {
    require_node(w.node, num_nodes, "crash");
    require(w.restart > w.at, "crash window must end after it starts");
  }
  for (const ChannelBlackoutWindow& w : blackouts) {
    require(w.until > w.at, "blackout window must end after it starts");
  }
  for (const BabbleWindow& w : babbles) {
    require_node(w.babbler, num_nodes, "babbler");
    require(w.slot.value() >= 1, "babble slot must be >= 1");
    require(w.until > w.at, "babble window must end after it starts");
  }
  for (const DriftWindow& w : drifts) {
    require_node(w.node, num_nodes, "drift");
    require(w.until > w.at, "drift window must end after it starts");
    require(w.excess_ppm > 0.0, "drift excess_ppm must be > 0");
  }
  if (stochastic_crashes.crashes_per_second > 0.0) {
    require(stochastic_crashes.num_nodes > 0 &&
                stochastic_crashes.num_nodes <= num_nodes,
            "stochastic crashes need num_nodes in [1, the cluster's nodes]");
    require(stochastic_crashes.horizon > sim::Time::zero(),
            "stochastic crashes need a horizon");
    require(stochastic_crashes.mean_time_to_repair > sim::Time::zero(),
            "stochastic mean_time_to_repair must be > 0");
  }
  if (stochastic_blackouts.outages_per_second > 0.0) {
    require(stochastic_blackouts.horizon > sim::Time::zero(),
            "stochastic blackouts need a horizon");
    require(stochastic_blackouts.mean_outage > sim::Time::zero(),
            "stochastic mean_outage must be > 0");
  }
}

std::string describe(const StructuralFaultConfig& config) {
  if (config.empty()) return "structural: none";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "structural: %zu crash, %zu blackout, %zu babble, %zu drift "
                "window(s)%s%s",
                config.crashes.size(), config.blackouts.size(),
                config.babbles.size(), config.drifts.size(),
                config.stochastic_crashes.crashes_per_second > 0.0
                    ? " + stochastic crashes"
                    : "",
                config.stochastic_blackouts.outages_per_second > 0.0
                    ? " + stochastic blackouts"
                    : "");
  return buf;
}

NodeFaultModel::NodeFaultModel(const StructuralFaultConfig& config,
                               int num_nodes, std::uint64_t seed)
    : config_(config) {
  config_.validate(num_nodes);

  // Expand stochastic generators into explicit windows. Child streams
  // per node/channel keep components independent of each other's draw
  // counts (same discipline as the bit-fault models).
  sim::Rng root(seed ^ 0x5741554C54ULL);  // "FAULT"
  const StochasticCrashParams& sc = config_.stochastic_crashes;
  if (sc.crashes_per_second > 0.0) {
    for (int n = 0; n < sc.num_nodes; ++n) {
      sim::Rng rng = root.split();
      double t_s = 0.0;
      const double horizon_s = static_cast<double>(sc.horizon.ns()) * 1e-9;
      while (true) {
        t_s += rng.exponential(sc.crashes_per_second);
        if (t_s >= horizon_s) break;
        const double repair_s =
            rng.exponential(1e9 / static_cast<double>(
                                      sc.mean_time_to_repair.ns()));
        NodeCrashWindow w;
        w.node = units::NodeId{n};
        w.at = sim::nanos(static_cast<std::int64_t>(t_s * 1e9));
        w.restart =
            sim::nanos(static_cast<std::int64_t>((t_s + repair_s) * 1e9));
        config_.crashes.push_back(w);
        t_s += repair_s;
      }
    }
  }
  const StochasticBlackoutParams& sb = config_.stochastic_blackouts;
  if (sb.outages_per_second > 0.0) {
    for (int c = 0; c < flexray::kNumChannels; ++c) {
      sim::Rng rng = root.split();
      double t_s = 0.0;
      const double horizon_s = static_cast<double>(sb.horizon.ns()) * 1e-9;
      while (true) {
        t_s += rng.exponential(sb.outages_per_second);
        if (t_s >= horizon_s) break;
        const double outage_s = rng.exponential(
            1e9 / static_cast<double>(sb.mean_outage.ns()));
        ChannelBlackoutWindow w;
        w.channel = static_cast<flexray::ChannelId>(c);
        w.at = sim::nanos(static_cast<std::int64_t>(t_s * 1e9));
        w.until =
            sim::nanos(static_cast<std::int64_t>((t_s + outage_s) * 1e9));
        config_.blackouts.push_back(w);
        t_s += outage_s;
      }
    }
  }

  // Coalesce overlapping windows per node/channel, then flatten into
  // the transition schedule.
  int max_node = -1;
  for (const NodeCrashWindow& w : config_.crashes) {
    max_node = std::max(max_node, static_cast<int>(w.node.value()));
  }

  std::vector<NodeCrashWindow> merged_crashes;
  for (int n = 0; n <= max_node; ++n) {
    std::vector<NodeCrashWindow> per_node;
    for (const NodeCrashWindow& w : config_.crashes) {
      if (w.node.value() == n) per_node.push_back(w);
    }
    per_node = merge_windows(std::move(per_node), &NodeCrashWindow::at,
                             &NodeCrashWindow::restart);
    merged_crashes.insert(merged_crashes.end(), per_node.begin(),
                          per_node.end());
  }
  config_.crashes = std::move(merged_crashes);

  std::vector<ChannelBlackoutWindow> merged_blackouts;
  for (int c = 0; c < flexray::kNumChannels; ++c) {
    std::vector<ChannelBlackoutWindow> per_channel;
    for (const ChannelBlackoutWindow& w : config_.blackouts) {
      if (static_cast<int>(w.channel) == c) per_channel.push_back(w);
    }
    per_channel = merge_windows(std::move(per_channel),
                                &ChannelBlackoutWindow::at,
                                &ChannelBlackoutWindow::until);
    merged_blackouts.insert(merged_blackouts.end(), per_channel.begin(),
                            per_channel.end());
  }
  config_.blackouts = std::move(merged_blackouts);

  for (const NodeCrashWindow& w : config_.crashes) {
    flexray::TopologyEvent down;
    down.kind = flexray::TopologyEventKind::kNodeCrash;
    down.node = w.node;
    down.at = w.at;
    events_.push_back(down);
    if (w.restart < sim::Time::max()) {
      flexray::TopologyEvent up;
      up.kind = flexray::TopologyEventKind::kNodeRestart;
      up.node = w.node;
      up.at = w.restart;
      events_.push_back(up);
    }
  }
  for (const ChannelBlackoutWindow& w : config_.blackouts) {
    flexray::TopologyEvent down;
    down.kind = flexray::TopologyEventKind::kChannelDown;
    down.channel = w.channel;
    down.at = w.at;
    events_.push_back(down);
    if (w.until < sim::Time::max()) {
      flexray::TopologyEvent up;
      up.kind = flexray::TopologyEventKind::kChannelUp;
      up.channel = w.channel;
      up.at = w.until;
      events_.push_back(up);
    }
  }
  // Fire order: time, then channels before nodes (the contract in
  // fault_domain.hpp), then ascending index; ups before downs at the
  // same instant so back-to-back windows stay well-formed.
  auto rank = [](const flexray::TopologyEvent& e) {
    switch (e.kind) {
      case flexray::TopologyEventKind::kChannelUp:
        return 0;
      case flexray::TopologyEventKind::kChannelDown:
        return 1;
      case flexray::TopologyEventKind::kNodeRestart:
        return 2;
      case flexray::TopologyEventKind::kNodeCrash:
        return 3;
    }
    return 4;
  };
  std::stable_sort(events_.begin(), events_.end(),
                   [&](const flexray::TopologyEvent& a,
                       const flexray::TopologyEvent& b) {
                     if (a.at != b.at) return a.at < b.at;
                     if (rank(a) != rank(b)) return rank(a) < rank(b);
                     const std::int64_t ia = a.node.value() >= 0
                                                 ? a.node.value()
                                                 : static_cast<std::int64_t>(
                                                       a.channel);
                     const std::int64_t ib = b.node.value() >= 0
                                                 ? b.node.value()
                                                 : static_cast<std::int64_t>(
                                                       b.channel);
                     return ia < ib;
                   });
}

std::vector<flexray::TopologyEvent> NodeFaultModel::poll(sim::Time at) {
  std::vector<flexray::TopologyEvent> fired;
  while (next_ < events_.size() && events_[next_].at <= at) {
    fired.push_back(events_[next_++]);
  }
  return fired;
}

bool NodeFaultModel::slot_jammed(units::SlotId slot, flexray::ChannelId channel,
                                 sim::Time at) const {
  for (const BabbleWindow& w : config_.babbles) {
    if (w.slot != slot) continue;
    if (w.channel && *w.channel != channel) continue;
    if (at >= w.at && at < w.until) return true;
  }
  return false;
}

bool NodeFaultModel::node_out_of_sync(units::NodeId node, sim::Time at) const {
  for (const DriftWindow& w : config_.drifts) {
    if (w.node == node && at >= w.at && at < w.until) return true;
  }
  return false;
}

std::string NodeFaultModel::describe() const {
  return fault::describe(config_) + " (" + std::to_string(events_.size()) +
         " transitions)";
}

SilentNodeDetector::SilentNodeDetector(int num_nodes,
                                       int silent_cycle_threshold)
    : entries_(static_cast<std::size_t>(std::max(num_nodes, 0))),
      threshold_(silent_cycle_threshold) {
  if (num_nodes <= 0) {
    throw std::invalid_argument("SilentNodeDetector: num_nodes must be > 0");
  }
  if (silent_cycle_threshold <= 0) {
    throw std::invalid_argument("SilentNodeDetector: threshold must be > 0");
  }
}

void SilentNodeDetector::note_expected(units::NodeId node) {
  const auto idx = static_cast<std::size_t>(node.value());
  if (idx < entries_.size()) entries_[idx].expected = true;
}

void SilentNodeDetector::note_activity(units::NodeId node) {
  const auto idx = static_cast<std::size_t>(node.value());
  if (idx < entries_.size()) entries_[idx].seen = true;
}

std::vector<units::NodeId> SilentNodeDetector::on_cycle_end() {
  std::vector<units::NodeId> newly_silent;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    if (e.seen) {
      e.silent_cycles = 0;
      e.flagged = false;  // recovered: transmitting again
    } else if (e.expected) {
      ++e.silent_cycles;
      if (e.silent_cycles >= threshold_ && !e.flagged) {
        e.flagged = true;
        newly_silent.push_back(units::NodeId{static_cast<std::int32_t>(i)});
      }
    }
    e.expected = false;
    e.seen = false;
  }
  return newly_silent;
}

bool SilentNodeDetector::silent(units::NodeId node) const {
  const auto idx = static_cast<std::size_t>(node.value());
  return idx < entries_.size() && entries_[idx].flagged;
}

}  // namespace coeff::fault
