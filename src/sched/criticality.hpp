// Mixed-criticality mode-change protocol (DESIGN.md §16).
//
// Generalizes the binary `degraded` flag into a three-mode state
// machine in the style of Novak/Sucha/Hanzalek's match-up scheduling
// (arXiv 1610.07384): NORMAL admits everything, DEGRADED-L1 sheds
// kLow dynamic traffic, DEGRADED-L2 sheds everything below kHigh.
// Escalation is driven by the ReliabilityMonitor's drift ratio
// (estimated/planned BER) and by dynamic-queue overload; de-escalation
// requires both a minimum dwell and a calm streak, so boundary BER
// estimates cannot flap the mode. Once back in NORMAL for a full
// recovery window, shed traffic is *matched up* — re-admitted with
// bounded catch-up bursts (adaptive re-admission per arXiv 2002.07535).
//
// All transitions happen at cycle boundaries (the scheduler calls
// evaluate() exactly once per cycle from its cycle-start hook), which
// is what the trace.mode-change-boundary lint rule checks.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "net/message.hpp"

namespace coeff::sched {

/// Operating mode, ordered by severity. Numeric values are stable:
/// they appear in trace records (kModeChange a/b, kShedByMode c) and
/// campaign rows.
enum class CriticalityMode : std::uint8_t {
  kNormal = 0,
  kDegradedL1 = 1,
  kDegradedL2 = 2,
};

inline constexpr int kCriticalityModeCount = 3;

[[nodiscard]] constexpr const char* to_string(CriticalityMode m) {
  return m == CriticalityMode::kNormal       ? "NORMAL"
         : m == CriticalityMode::kDegradedL1 ? "DEGRADED-L1"
                                             : "DEGRADED-L2";
}

/// Lowest criticality a *dynamic* release must have to be admitted in
/// mode `m` (statics are never shed by mode — the paper's static
/// segment carries the safety-critical traffic). NORMAL admits kLow,
/// L1 requires kMedium, L2 requires kHigh.
[[nodiscard]] constexpr net::Criticality admission_floor(CriticalityMode m) {
  return m == CriticalityMode::kNormal       ? net::Criticality::kLow
         : m == CriticalityMode::kDegradedL1 ? net::Criticality::kMedium
                                             : net::Criticality::kHigh;
}

/// Mode-change policy knobs. Defaults are the "conservative" preset;
/// `enabled` defaults to false so existing configurations keep the
/// legacy binary-degraded behaviour bit for bit.
struct ModePolicy {
  bool enabled = false;
  /// Drift-ratio thresholds (estimated/planned BER) for escalation.
  /// Entering L1 at `enter_l1_factor` matches the monitor's default
  /// trigger_factor, so drift detection and mode entry coincide.
  double enter_l1_factor = 5.0;
  double enter_l2_factor = 25.0;
  /// De-escalation threshold: the drift ratio must stay below this for
  /// `recovery_cycles` consecutive cycles. Must satisfy
  /// 1.0 <= exit_factor <= enter_l1_factor.
  double exit_factor = 2.0;
  /// Minimum cycles to stay in a degraded mode once entered (flap
  /// damping on top of the calm streak).
  int min_dwell_cycles = 20;
  /// Consecutive calm cycles required before stepping one mode down,
  /// and (back in NORMAL) before match-up re-admission opens.
  int recovery_cycles = 10;
  /// Maximum shed messages re-admitted per cycle during match-up.
  int matchup_burst = 4;
  /// Shed entries older than this many cycles are abandoned instead of
  /// matched up (their data is stale; counted, never re-admitted).
  int matchup_window_cycles = 64;
  /// Pending dynamic releases above which the scheduler reports
  /// overload to evaluate() (0 = overload detection off).
  int overload_backlog = 0;

  /// Throws std::invalid_argument on inconsistent thresholds/counts.
  void validate() const;
};

/// One evaluate() verdict.
struct ModeDecision {
  bool changed = false;
  CriticalityMode from = CriticalityMode::kNormal;
  CriticalityMode to = CriticalityMode::kNormal;
};

/// The mode-change state machine. Pure decide-side state: evaluate()
/// is called exactly once per cycle at the cycle boundary with inputs
/// that are identical across engines and job counts, so the mode
/// trajectory is deterministic.
class ModeManager {
 public:
  explicit ModeManager(const ModePolicy& policy);

  /// One cycle-boundary step. `drift_ratio` is the monitor's last
  /// estimated/planned BER ratio (fault::ReliabilityMonitor::drift_ratio,
  /// 1.0 when no estimate is available); it carries no hysteresis of its
  /// own, the policy's exit_factor, min_dwell_cycles and recovery_cycles
  /// are the protocol's. `overloaded` is the scheduler's backlog
  /// predicate. Escalates at most one level per call (L2 entry from
  /// NORMAL takes two cycles — each step is traced); de-escalates one
  /// level only after min_dwell_cycles in the current mode AND
  /// recovery_cycles of calm.
  ModeDecision evaluate(double drift_ratio, bool overloaded);

  [[nodiscard]] CriticalityMode mode() const { return mode_; }
  [[nodiscard]] bool degraded() const {
    return mode_ != CriticalityMode::kNormal;
  }
  /// True once the machine has been back in NORMAL for a full
  /// recovery window — the gate for match-up re-admission.
  [[nodiscard]] bool matchup_open() const {
    return mode_ == CriticalityMode::kNormal &&
           normal_streak_ >= policy_.recovery_cycles;
  }
  [[nodiscard]] const ModePolicy& policy() const { return policy_; }
  /// Cycles spent in each mode since construction (indexed by mode).
  [[nodiscard]] std::int64_t cycles_in(CriticalityMode m) const {
    return cycles_in_[static_cast<std::size_t>(m)];
  }

 private:
  ModePolicy policy_;
  CriticalityMode mode_ = CriticalityMode::kNormal;
  std::int64_t dwell_cycles_ = 0;   ///< cycles in the current mode
  int calm_streak_ = 0;             ///< consecutive cycles below exit_factor
  int normal_streak_ = 0;           ///< consecutive cycles spent in NORMAL
  std::int64_t cycles_in_[kCriticalityModeCount] = {};
};

// --- Config parsing (total functions: never throw, nullopt on error) ---

/// Parse a --mode-policy spec. Accepts the presets "off",
/// "conservative" and "aggressive", or a comma-separated key=value
/// list over: enter-l1, enter-l2, exit, dwell, recovery, burst,
/// window, backlog (e.g. "enter-l1=4,exit=1.5,dwell=10"). Unlisted
/// keys keep the conservative defaults; any preset token may also be
/// the first list element. Returns nullopt on unknown keys, malformed
/// numbers, or values that fail ModePolicy::validate().
[[nodiscard]] std::optional<ModePolicy> parse_mode_policy(
    std::string_view spec);

/// Parse one criticality level name ("low" | "medium" | "high").
[[nodiscard]] std::optional<net::Criticality> parse_criticality(
    std::string_view name);

/// A parsed --criticality spec: kind-level defaults plus per-message
/// overrides, e.g. "static=high,dyn=low,7=medium".
struct CriticalitySpec {
  std::optional<net::Criticality> static_default;
  std::optional<net::Criticality> dynamic_default;
  /// (message id, level) overrides in spec order.
  std::vector<std::pair<int, net::Criticality>> overrides;
};

/// Parse a --criticality spec: comma-separated entries of the form
/// "static=LEVEL", "dyn=LEVEL" (alias "dynamic"), or "<id>=LEVEL".
/// Returns nullopt on malformed entries or unknown level names. The
/// empty spec is valid and assigns nothing.
[[nodiscard]] std::optional<CriticalitySpec> parse_criticality_spec(
    std::string_view spec);

/// Apply a spec to a message set: kind defaults first, then id
/// overrides (unknown ids are ignored — workload prefixes drop
/// messages legitimately). Messages not covered keep their level.
[[nodiscard]] net::MessageSet with_criticality(const net::MessageSet& set,
                                               const CriticalitySpec& spec);

/// The scheduler-side effective level: an explicit assignment wins;
/// sets left entirely at kLow get the kind-dependent default (static →
/// kHigh, dynamic → kLow) so legacy workloads reproduce the binary
/// degraded semantics. `any_assigned` is true when the set carries at
/// least one non-kLow level.
[[nodiscard]] net::Criticality effective_criticality(const net::Message& m,
                                                     bool any_assigned);

}  // namespace coeff::sched
