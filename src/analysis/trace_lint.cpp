#include "analysis/trace_lint.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>

namespace coeff::analysis {

namespace {

Location record_loc(std::int64_t index) {
  Location loc;
  loc.record = index;
  return loc;
}

bool is_tx(sim::TraceKind k) {
  return k == sim::TraceKind::kTxSuccess || k == sim::TraceKind::kTxCorrupted;
}

}  // namespace

Report lint_trace(const TraceLintInput& input) {
  Report report;
  if (input.trace == nullptr || input.cluster == nullptr) {
    report.add("trace.kind-valid", "no trace or cluster configuration given");
    return report;
  }
  CappedReport out(report);

  const flexray::ClusterConfig& cfg = *input.cluster;
  const sim::Time cycle = cfg.cycle_duration();
  const sim::Time static_segment = cfg.static_segment_duration();

  // Valid traces are not globally time-sorted: the cluster walks channel
  // A's dynamic segment before channel B's, so B's records rewind within
  // the cycle. The cycle-start stream, however, must be strictly
  // increasing.
  sim::Time prev_cycle_start = sim::Time::zero();
  bool saw_cycle_start = false;
  // Per-channel end of the latest transmission (for overlap detection).
  sim::Time busy_until[flexray::kNumChannels] = {};
  // Planned-discipline budget: admitted copies per node not yet sent.
  std::map<std::int64_t, std::int64_t> retx_budget;
  // Rounds discipline: (sender, frame id) pairs already transmitted.
  std::set<std::pair<std::int64_t, std::int64_t>> seen_frames;
  bool degraded = input.initial_degraded;
  // Mixed-criticality mode state replayed from kModeChange records:
  // current mode (0 = NORMAL), and the earliest time match-up may
  // legally re-admit (the last return-to-NORMAL plus its recovery
  // window — the machine opens once NORMAL has held for the window's
  // d cycles, i.e. d-1 cycles after the change record).
  int mc_mode = 0;
  bool saw_normal_return = false;
  sim::Time matchup_ready_at;
  // Structural fault state replayed from the trace.
  std::set<std::int64_t> nodes_down;
  bool chan_down[flexray::kNumChannels] = {};

  const auto& records = input.trace->records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const sim::TraceRecord& r = records[i];
    const auto idx = static_cast<std::int64_t>(i);

    const int kind_value = static_cast<int>(r.kind);
    if (kind_value < 0 || kind_value >= sim::kTraceKindCount) {
      out.add("trace.kind-valid",
              strformat("record %lld: TraceKind %d out of range",
                        static_cast<long long>(idx), kind_value),
              record_loc(idx));
      continue;  // the tags of an unknown kind mean nothing
    }

    switch (r.kind) {
      case sim::TraceKind::kCycleStart: {
        if (saw_cycle_start && r.at <= prev_cycle_start) {
          out.add("trace.monotonic-time",
                  strformat("cycle-start record %lld at %s does not advance "
                            "past the previous cycle start %s",
                            static_cast<long long>(idx),
                            sim::to_string(r.at).c_str(),
                            sim::to_string(prev_cycle_start).c_str()),
                  record_loc(idx));
        }
        prev_cycle_start = r.at;
        saw_cycle_start = true;
        if (r.at % cycle != sim::Time::zero() ||
            (r.a >= 0 && r.a != r.at / cycle)) {
          out.add("trace.cycle-boundary",
                  strformat("cycle-start record %lld at %s does not match "
                            "cycle %lld of the %s grid",
                            static_cast<long long>(idx),
                            sim::to_string(r.at).c_str(),
                            static_cast<long long>(r.a),
                            sim::to_string(cycle).c_str()),
                  record_loc(idx));
        }
        break;
      }
      case sim::TraceKind::kRetransmissionScheduled: {
        if (r.b >= 0 && r.c > 0) retx_budget[r.b] += r.c;
        break;
      }
      case sim::TraceKind::kPlanSwap: {
        if (r.at % cycle != sim::Time::zero()) {
          out.add("trace.plan-swap-boundary",
                  strformat("plan swap at %s is not on a cycle boundary",
                            sim::to_string(r.at).c_str()),
                  record_loc(idx));
        }
        degraded = r.c == 1;
        break;
      }
      case sim::TraceKind::kLoadShed: {
        if (!degraded) {
          out.add("trace.load-shed-degraded",
                  strformat("message %lld shed at %s while the scheduler "
                            "was not degraded",
                            static_cast<long long>(r.a),
                            sim::to_string(r.at).c_str()),
                  record_loc(idx));
        }
        break;
      }
      case sim::TraceKind::kModeChange: {
        // a=from, b=to, c=cycle, d=recovery window. Mode swaps are
        // decided exactly once per cycle, at the boundary.
        if (r.at % cycle != sim::Time::zero() ||
            (r.c >= 0 && r.c != r.at / cycle)) {
          out.add("trace.mode-change-boundary",
                  strformat("record %lld: mode change at %s is not aligned "
                            "to cycle %lld of the %s grid",
                            static_cast<long long>(idx),
                            sim::to_string(r.at).c_str(),
                            static_cast<long long>(r.c),
                            sim::to_string(cycle).c_str()),
                  record_loc(idx));
        }
        if (r.a < 0 || r.a >= 3 || r.b < 0 || r.b >= 3 || r.a == r.b) {
          out.add("trace.kind-valid",
                  strformat("record %lld: mode-change tags %lld -> %lld out "
                            "of range",
                            static_cast<long long>(idx),
                            static_cast<long long>(r.a),
                            static_cast<long long>(r.b)),
                  record_loc(idx));
          break;
        }
        mc_mode = static_cast<int>(r.b);
        if (mc_mode == 0) {
          saw_normal_return = true;
          const std::int64_t window = r.d > 0 ? r.d : 1;
          matchup_ready_at = r.at + cycle * (window - 1);
        }
        break;
      }
      case sim::TraceKind::kShedByMode: {
        // a=message, b=node, c=mode, d=criticality. Criticality-based
        // shedding exists only while a degraded mode is active.
        if (mc_mode == 0) {
          out.add("trace.shed-outside-degraded",
                  strformat("record %lld: message %lld shed by mode at %s "
                            "while the replayed mode was NORMAL",
                            static_cast<long long>(idx),
                            static_cast<long long>(r.a),
                            sim::to_string(r.at).c_str()),
                  record_loc(idx));
        } else if (r.c >= 0 && r.c != mc_mode) {
          out.add("trace.shed-outside-degraded",
                  strformat("record %lld: shed tagged mode %lld disagrees "
                            "with the replayed mode %d",
                            static_cast<long long>(idx),
                            static_cast<long long>(r.c), mc_mode),
                  record_loc(idx));
        }
        break;
      }
      case sim::TraceKind::kMatchUp: {
        // a=message, b=node, c=cycle, d=criticality. Re-admission is
        // legal only back in NORMAL, after the recovery window the
        // change-to-NORMAL record announced has elapsed.
        if (mc_mode != 0) {
          out.add("trace.matchup-before-recovery",
                  strformat("record %lld: message %lld matched up at %s "
                            "while still in degraded mode %d",
                            static_cast<long long>(idx),
                            static_cast<long long>(r.a),
                            sim::to_string(r.at).c_str(), mc_mode),
                  record_loc(idx));
        } else if (!saw_normal_return) {
          out.add("trace.matchup-before-recovery",
                  strformat("record %lld: message %lld matched up at %s "
                            "with no prior mode change back to NORMAL",
                            static_cast<long long>(idx),
                            static_cast<long long>(r.a),
                            sim::to_string(r.at).c_str()),
                  record_loc(idx));
        } else if (r.at < matchup_ready_at) {
          out.add("trace.matchup-before-recovery",
                  strformat("record %lld: message %lld matched up at %s "
                            "before the recovery window elapsed (%s)",
                            static_cast<long long>(idx),
                            static_cast<long long>(r.a),
                            sim::to_string(r.at).c_str(),
                            sim::to_string(matchup_ready_at).c_str()),
                  record_loc(idx));
        }
        break;
      }
      case sim::TraceKind::kNodeCrash:
      case sim::TraceKind::kNodeRestart:
      case sim::TraceKind::kChannelDown:
      case sim::TraceKind::kChannelUp: {
        // Structural transitions are applied at cycle starts only; both
        // the timestamp and the recorded cycle tag must sit on the grid.
        if (r.at % cycle != sim::Time::zero() ||
            (r.b >= 0 && r.b != r.at / cycle)) {
          out.add("trace.structural-boundary",
                  strformat("record %lld: %s at %s is not aligned to cycle "
                            "%lld of the %s grid",
                            static_cast<long long>(idx), sim::to_string(r.kind),
                            sim::to_string(r.at).c_str(),
                            static_cast<long long>(r.b),
                            sim::to_string(cycle).c_str()),
                  record_loc(idx));
        }
        if (r.kind == sim::TraceKind::kNodeCrash) {
          if (!nodes_down.insert(r.a).second) {
            out.add("trace.structural-causality",
                    strformat("record %lld: node %lld crashed while already "
                              "down",
                              static_cast<long long>(idx),
                              static_cast<long long>(r.a)),
                    record_loc(idx));
          }
        } else if (r.kind == sim::TraceKind::kNodeRestart) {
          if (nodes_down.erase(r.a) == 0) {
            out.add("trace.structural-causality",
                    strformat("record %lld: node %lld restarted without a "
                              "prior crash",
                              static_cast<long long>(idx),
                              static_cast<long long>(r.a)),
                    record_loc(idx));
          }
        } else if (r.a < 0 || r.a >= flexray::kNumChannels) {
          out.add("trace.kind-valid",
                  strformat("record %lld: channel tag %lld out of range",
                            static_cast<long long>(idx),
                            static_cast<long long>(r.a)),
                  record_loc(idx));
        } else {
          bool& down = chan_down[static_cast<std::size_t>(r.a)];
          const bool going_down = r.kind == sim::TraceKind::kChannelDown;
          if (down == going_down) {
            out.add("trace.structural-causality",
                    strformat("record %lld: channel %s reported %s twice",
                              static_cast<long long>(idx),
                              flexray::to_string(
                                  static_cast<flexray::ChannelId>(r.a)),
                              going_down ? "down" : "up"),
                    record_loc(idx));
          }
          down = going_down;
        }
        break;
      }
      case sim::TraceKind::kFailover: {
        // A failover copy exists only because the primary's home channel
        // (A) is dark — and it must ride a live wire itself.
        if (!chan_down[static_cast<std::size_t>(flexray::ChannelId::kA)]) {
          out.add("trace.failover-causality",
                  strformat("record %lld: node %lld failed slot %lld over "
                            "while its home channel A was up",
                            static_cast<long long>(idx),
                            static_cast<long long>(r.a),
                            static_cast<long long>(r.b)),
                  record_loc(idx));
        }
        if (r.c >= 0 && r.c < flexray::kNumChannels &&
            chan_down[static_cast<std::size_t>(r.c)]) {
          out.add("trace.failover-causality",
                  strformat("record %lld: failover copy of node %lld rode "
                            "dark channel %s",
                            static_cast<long long>(idx),
                            static_cast<long long>(r.a),
                            flexray::to_string(
                                static_cast<flexray::ChannelId>(r.c))),
                  record_loc(idx));
        }
        break;
      }
      case sim::TraceKind::kVoteResolved: {
        // a=message, b=accepted, c=clean replicas, d=vote size k.
        if (r.d < 3 || r.d % 2 == 0) {
          out.add("trace.vote-consistency",
                  strformat("record %lld: vote over k=%lld replicas (k must "
                            "be odd and >= 3)",
                            static_cast<long long>(idx),
                            static_cast<long long>(r.d)),
                  record_loc(idx));
          break;
        }
        const std::int64_t majority = r.d / 2 + 1;
        if ((r.b == 1) != (r.c >= majority)) {
          out.add("trace.vote-consistency",
                  strformat("record %lld: message %lld vote %s with %lld of "
                            "%lld clean replicas (majority is %lld)",
                            static_cast<long long>(idx),
                            static_cast<long long>(r.a),
                            r.b == 1 ? "accepted" : "rejected",
                            static_cast<long long>(r.c),
                            static_cast<long long>(r.d),
                            static_cast<long long>(majority)),
                  record_loc(idx));
        }
        break;
      }
      default:
        break;
    }

    if (!is_tx(r.kind)) continue;

    // --- Transmission records: a=sender, b=frame id, c=channel,
    // d=payload bits, note "retx" for retransmission copies. -----------
    if (r.c < 0 || r.c >= flexray::kNumChannels) {
      out.add("trace.kind-valid",
              strformat("record %lld: channel tag %lld out of range",
                        static_cast<long long>(idx),
                        static_cast<long long>(r.c)),
              record_loc(idx));
      continue;
    }
    const auto channel = static_cast<std::size_t>(r.c);
    if (chan_down[channel]) {
      // Frames clocked into a dark channel are lost silently and never
      // traced; a transmission record here means the cluster drove a
      // wire it knew was down.
      out.add("trace.dead-channel-tx",
              strformat("record %lld: transmission on channel %s while it "
                        "was blacked out",
                        static_cast<long long>(idx),
                        flexray::to_string(
                            static_cast<flexray::ChannelId>(channel))),
              record_loc(idx));
    }
    // Static transmissions occupy their full fixed slot; dynamic ones
    // their wire time. Position within the cycle tells the segment.
    const bool in_static_segment = r.at % cycle < static_segment;
    const sim::Time duration = in_static_segment
                                   ? cfg.static_slot_duration()
                                   : (r.d >= 0 ? cfg.transmission_time(r.d)
                                               : sim::Time::zero());
    if (r.at < busy_until[channel]) {
      out.add("trace.tx-overlap",
              strformat("record %lld: transmission on channel %s at %s "
                        "starts before the previous one ends (%s)",
                        static_cast<long long>(idx),
                        flexray::to_string(
                            static_cast<flexray::ChannelId>(channel)),
                        sim::to_string(r.at).c_str(),
                        sim::to_string(busy_until[channel]).c_str()),
              record_loc(idx));
    }
    busy_until[channel] = std::max(busy_until[channel], r.at + duration);

    const bool is_retx = r.note == "retx";
    if (!is_retx) {
      seen_frames.insert({r.a, r.b});
      continue;
    }
    switch (input.discipline) {
      case ProbRetxModel::kPlannedSerial: {
        if (--retx_budget[r.a] < 0) {
          out.add("trace.retx-causality",
                  strformat("record %lld: node %lld sent a retransmission "
                            "with no scheduled copies outstanding",
                            static_cast<long long>(idx),
                            static_cast<long long>(r.a)),
                  record_loc(idx));
          retx_budget[r.a] = 0;  // report each excess copy exactly once
        }
        break;
      }
      case ProbRetxModel::kMirroredRounds: {
        // A round-train copy must repeat a frame this sender already put
        // on the wire (the round-1 original, whatever its outcome).
        if (seen_frames.find({r.a, r.b}) == seen_frames.end()) {
          out.add("trace.retx-causality",
                  strformat("record %lld: node %lld retransmitted frame "
                            "%lld it never originally transmitted",
                            static_cast<long long>(idx),
                            static_cast<long long>(r.a),
                            static_cast<long long>(r.b)),
                  record_loc(idx));
        }
        break;
      }
      case ProbRetxModel::kMirroredSingle: {
        if (channel != static_cast<std::size_t>(flexray::ChannelId::kB)) {
          out.add("trace.retx-causality",
                  strformat("record %lld: mirror copy of node %lld rode "
                            "channel A; mirrors belong on channel B",
                            static_cast<long long>(idx),
                            static_cast<long long>(r.a)),
                  record_loc(idx));
        }
        break;
      }
    }
  }
  return report;
}

}  // namespace coeff::analysis
