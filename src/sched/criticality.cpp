#include "sched/criticality.hpp"

#include <stdexcept>
#include <string>

#include "units/number.hpp"

namespace coeff::sched {

namespace {

[[noreturn]] void invalid(const std::string& what) {
  throw std::invalid_argument("ModePolicy: " + what);
}

}  // namespace

void ModePolicy::validate() const {
  if (!(enter_l1_factor > 1.0)) invalid("enter_l1_factor must be > 1");
  if (!(enter_l2_factor >= enter_l1_factor)) {
    invalid("enter_l2_factor must be >= enter_l1_factor");
  }
  if (!(exit_factor >= 1.0)) invalid("exit_factor must be >= 1");
  if (!(exit_factor <= enter_l1_factor)) {
    invalid("exit_factor must be <= enter_l1_factor");
  }
  if (min_dwell_cycles < 0) invalid("min_dwell_cycles must be >= 0");
  if (recovery_cycles < 1) invalid("recovery_cycles must be >= 1");
  if (matchup_burst < 1) invalid("matchup_burst must be >= 1");
  if (matchup_window_cycles < 1) invalid("matchup_window_cycles must be >= 1");
  if (overload_backlog < 0) invalid("overload_backlog must be >= 0");
}

ModeManager::ModeManager(const ModePolicy& policy) : policy_(policy) {
  policy_.validate();
}

ModeDecision ModeManager::evaluate(double drift_ratio, bool overloaded) {
  ModeDecision decision;
  decision.from = mode_;

  // Escalation target from this cycle's inputs. Overload alone only
  // justifies L1; L2 is reserved for severe environment drift.
  CriticalityMode target = CriticalityMode::kNormal;
  if (drift_ratio >= policy_.enter_l2_factor) {
    target = CriticalityMode::kDegradedL2;
  } else if (drift_ratio >= policy_.enter_l1_factor || overloaded) {
    target = CriticalityMode::kDegradedL1;
  }

  const bool calm = drift_ratio < policy_.exit_factor && !overloaded;
  calm_streak_ = calm ? calm_streak_ + 1 : 0;

  CriticalityMode next = mode_;
  if (target > mode_) {
    // Escalate one level per cycle so every transition is traced and
    // the shed set grows monotonically (no slot-level races).
    next = static_cast<CriticalityMode>(static_cast<int>(mode_) + 1);
  } else if (mode_ != CriticalityMode::kNormal && target < mode_ &&
             calm_streak_ >= policy_.recovery_cycles &&
             dwell_cycles_ >= policy_.min_dwell_cycles) {
    next = static_cast<CriticalityMode>(static_cast<int>(mode_) - 1);
    // One recovery window per step down: L2 → L1 → NORMAL takes two
    // full calm windows, which damps oscillation near the threshold.
    calm_streak_ = 0;
  }

  if (next != mode_) {
    decision.changed = true;
    decision.to = next;
    mode_ = next;
    dwell_cycles_ = 0;
  } else {
    decision.to = mode_;
  }

  ++dwell_cycles_;
  ++cycles_in_[static_cast<std::size_t>(mode_)];
  normal_streak_ =
      mode_ == CriticalityMode::kNormal ? normal_streak_ + 1 : 0;
  return decision;
}

namespace {

using units::parse_number;

/// A policy integer, capped at +-1e9.
bool parse_int(std::string_view s, int& out) {
  int v = 0;
  if (!parse_number(s, v) || v < -1'000'000'000 || v > 1'000'000'000) {
    return false;
  }
  out = v;
  return true;
}

std::optional<ModePolicy> preset_policy(std::string_view name) {
  ModePolicy p;
  if (name == "off") {
    p.enabled = false;
    return p;
  }
  if (name == "conservative") {
    p.enabled = true;
    return p;
  }
  if (name == "aggressive") {
    // Reacts faster and recovers faster: lower entry thresholds,
    // shorter dwell, bigger catch-up bursts.
    p.enabled = true;
    p.enter_l1_factor = 3.0;
    p.enter_l2_factor = 10.0;
    p.exit_factor = 1.5;
    p.min_dwell_cycles = 5;
    p.recovery_cycles = 5;
    p.matchup_burst = 8;
    return p;
  }
  return std::nullopt;
}

}  // namespace

std::optional<ModePolicy> parse_mode_policy(std::string_view spec) {
  if (spec.empty()) return std::nullopt;
  ModePolicy policy;
  policy.enabled = true;
  bool first = true;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (item.empty()) return std::nullopt;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      // Bare token: only valid as a leading preset name.
      if (!first) return std::nullopt;
      const auto preset = preset_policy(item);
      if (!preset.has_value()) return std::nullopt;
      policy = *preset;
      first = false;
      continue;
    }
    first = false;
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    if (key == "enter-l1") {
      if (!parse_number(value, policy.enter_l1_factor)) return std::nullopt;
    } else if (key == "enter-l2") {
      if (!parse_number(value, policy.enter_l2_factor)) return std::nullopt;
    } else if (key == "exit") {
      if (!parse_number(value, policy.exit_factor)) return std::nullopt;
    } else if (key == "dwell") {
      if (!parse_int(value, policy.min_dwell_cycles)) return std::nullopt;
    } else if (key == "recovery") {
      if (!parse_int(value, policy.recovery_cycles)) return std::nullopt;
    } else if (key == "burst") {
      if (!parse_int(value, policy.matchup_burst)) return std::nullopt;
    } else if (key == "window") {
      if (!parse_int(value, policy.matchup_window_cycles)) return std::nullopt;
    } else if (key == "backlog") {
      if (!parse_int(value, policy.overload_backlog)) return std::nullopt;
    } else {
      return std::nullopt;
    }
  }
  try {
    policy.validate();
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  return policy;
}

std::optional<net::Criticality> parse_criticality(std::string_view name) {
  if (name == "low") return net::Criticality::kLow;
  if (name == "medium") return net::Criticality::kMedium;
  if (name == "high") return net::Criticality::kHigh;
  return std::nullopt;
}

std::optional<CriticalitySpec> parse_criticality_spec(std::string_view spec) {
  CriticalitySpec out;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view item = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    if (item.empty()) return std::nullopt;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) return std::nullopt;
    const std::string_view key = item.substr(0, eq);
    const auto level = parse_criticality(item.substr(eq + 1));
    if (!level.has_value()) return std::nullopt;
    if (key == "static") {
      out.static_default = *level;
    } else if (key == "dyn" || key == "dynamic") {
      out.dynamic_default = *level;
    } else {
      int id = 0;
      if (!parse_int(key, id) || id < 0) return std::nullopt;
      out.overrides.emplace_back(id, *level);
    }
  }
  return out;
}

net::MessageSet with_criticality(const net::MessageSet& set,
                                 const CriticalitySpec& spec) {
  std::vector<net::Message> msgs = set.messages();
  for (auto& m : msgs) {
    if (m.kind == net::MessageKind::kStatic && spec.static_default) {
      m.criticality = *spec.static_default;
    }
    if (m.kind == net::MessageKind::kDynamic && spec.dynamic_default) {
      m.criticality = *spec.dynamic_default;
    }
  }
  for (const auto& [id, level] : spec.overrides) {
    for (auto& m : msgs) {
      if (m.id == id) m.criticality = level;
    }
  }
  return net::MessageSet(std::move(msgs));
}

net::Criticality effective_criticality(const net::Message& m,
                                       bool any_assigned) {
  if (any_assigned) return m.criticality;
  return m.kind == net::MessageKind::kStatic ? net::Criticality::kHigh
                                             : net::Criticality::kLow;
}

}  // namespace coeff::sched
