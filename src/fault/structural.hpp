// Structural fault models: node- and channel-level fault injection.
//
// PR 2's FaultModel hierarchy corrupts individual frames; this layer
// injects the fault classes FlexRay's dual-channel redundancy and the
// paper's IEC 61508 target actually exist to survive:
//
//  * ECU crash/restart intervals — the node stops producing, loses its
//    CHI contents, and reintegrates at a cycle boundary after repair.
//  * Channel blackout windows — one channel goes dark (harness short,
//    star-coupler failure); frames clocked into it are lost, not
//    corrupted: receivers observe silence.
//  * Babbling-idiot slots — a faulty controller jams a static slot, so
//    every frame sent there collides and arrives corrupted.
//  * Clock-drift excursions — a node's oscillator runs far beyond the
//    sync budget; its frames miss the action point and are unreceivable
//    whatever the excursion's size.
//
// fault::NodeFaultModel implements flexray::StructuralFaultProvider
// (the interface lives in flexray/ because coeff_fault links against
// coeff_flexray, not vice versa). Windows can be scheduled explicitly
// or generated stochastically (seeded, exponential interarrivals), and
// the whole transition schedule is precomputed at construction — the
// model is deterministic per seed and share-nothing across sweep
// workers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "flexray/config.hpp"
#include "flexray/fault_domain.hpp"
#include "sim/time.hpp"
#include "units/units.hpp"

namespace coeff::fault {

/// ECU down from `at` until `restart` (Time::max() = never repaired).
struct NodeCrashWindow {
  units::NodeId node{0};
  sim::Time at;
  sim::Time restart = sim::Time::max();
};

/// Channel dark over [at, until).
struct ChannelBlackoutWindow {
  flexray::ChannelId channel = flexray::ChannelId::kA;
  sim::Time at;
  sim::Time until = sim::Time::max();
};

/// Babbling idiot `babbler` jams static slot `slot` over [at, until).
/// `channel` empty = both channels (the babbler drives both branches).
struct BabbleWindow {
  units::NodeId babbler{0};
  units::SlotId slot{0};
  std::optional<flexray::ChannelId> channel;
  sim::Time at;
  sim::Time until = sim::Time::max();
};

/// Node `node` drifted beyond the sync bound over [at, until); its
/// transmissions are unreceivable. `excess_ppm` records the severity
/// (`--drift`'s PPM field; the campaign generator draws one per window)
/// and must be > 0, but the walk does not read it: any excursion
/// silences the node.
struct DriftWindow {
  units::NodeId node{0};
  sim::Time at;
  sim::Time until = sim::Time::max();
  double excess_ppm = 1000.0;
};

/// Seeded random crash/outage generation over a horizon (exponential
/// interarrivals, exponential repair times). rate <= 0 disables.
struct StochasticCrashParams {
  double crashes_per_second = 0.0;  ///< per node
  sim::Time mean_time_to_repair = sim::millis(50);
  sim::Time horizon;
  int num_nodes = 0;
};

struct StochasticBlackoutParams {
  double outages_per_second = 0.0;  ///< per channel
  sim::Time mean_outage = sim::millis(20);
  sim::Time horizon;
};

struct StructuralFaultConfig {
  std::vector<NodeCrashWindow> crashes;
  std::vector<ChannelBlackoutWindow> blackouts;
  std::vector<BabbleWindow> babbles;
  std::vector<DriftWindow> drifts;
  StochasticCrashParams stochastic_crashes;
  StochasticBlackoutParams stochastic_blackouts;

  /// True when no fault source is configured at all.
  [[nodiscard]] bool empty() const;
  /// Throws std::invalid_argument naming the first violated constraint
  /// on a cluster of `num_nodes` nodes (a node id outside [0,
  /// num_nodes), an empty/backwards window, bad stochastic params).
  void validate(int num_nodes) const;
};

[[nodiscard]] std::string describe(const StructuralFaultConfig& config);

/// The seeded, deterministic structural fault injector. All state
/// transitions are precomputed at construction; poll() replays them.
class NodeFaultModel : public flexray::StructuralFaultProvider {
 public:
  /// Throws std::invalid_argument unless `config` is valid on the
  /// cluster of `num_nodes` nodes the model drives
  /// (StructuralFaultConfig::validate).
  NodeFaultModel(const StructuralFaultConfig& config, int num_nodes,
                 std::uint64_t seed);

  std::vector<flexray::TopologyEvent> poll(sim::Time at) override;
  [[nodiscard]] bool node_down(units::NodeId node) const override;
  [[nodiscard]] bool channel_down(flexray::ChannelId channel) const override;
  [[nodiscard]] bool slot_jammed(units::SlotId slot, flexray::ChannelId channel,
                                 sim::Time at) const override;
  [[nodiscard]] bool node_out_of_sync(units::NodeId node,
                                      sim::Time at) const override;

  /// The full precomputed transition schedule, sorted by fire time
  /// (introspection: tests, run headers).
  [[nodiscard]] const std::vector<flexray::TopologyEvent>& schedule() const {
    return events_;
  }
  [[nodiscard]] const StructuralFaultConfig& config() const { return config_; }
  [[nodiscard]] std::string describe() const;

 private:
  StructuralFaultConfig config_;  ///< with stochastic windows expanded
  std::vector<flexray::TopologyEvent> events_;
  std::size_t next_ = 0;
  std::vector<char> node_down_;  ///< indexed by node id
  std::array<bool, flexray::kNumChannels> channel_down_{};
};

/// Silent-node detection: the ReliabilityMonitor extension for fail-
/// silent faults. A BER monitor learns from verdicts, but a crashed
/// node produces *no* verdicts — its failure signature is scheduled
/// wire time passing unused. The detector compares, per cycle, which
/// nodes were expected on the wire against which were observed; a node
/// expected but unseen for `threshold` consecutive cycles is flagged
/// (once) so the scheduler can re-plan its slots as stealable slack.
/// Deterministic and purely observational, like the BER monitor.
class SilentNodeDetector {
 public:
  explicit SilentNodeDetector(int num_nodes, int silent_cycle_threshold = 2);

  /// This cycle's schedule gives `node` wire time.
  void note_expected(units::NodeId node);
  /// A frame from `node` was observed on some channel this cycle.
  void note_activity(units::NodeId node);

  /// Roll the cycle. Returns the nodes that just crossed the silence
  /// threshold (flagged exactly once until they recover).
  [[nodiscard]] std::vector<units::NodeId> on_cycle_end();

  /// A previously-flagged node transmitted again (note_activity clears
  /// the flag); query current state.
  [[nodiscard]] bool silent(units::NodeId node) const;
  [[nodiscard]] std::int64_t detections() const { return detections_; }

 private:
  struct Entry {
    bool expected = false;
    bool seen = false;
    int silent_cycles = 0;
    bool flagged = false;
  };
  std::vector<Entry> entries_;
  int threshold_;
  std::int64_t detections_ = 0;
};

}  // namespace coeff::fault
