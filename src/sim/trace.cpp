#include "sim/trace.hpp"

#include <cstdio>

namespace coeff::sim {

const char* to_string(TraceKind k) {
  switch (k) {
    case TraceKind::kCycleStart:
      return "cycle_start";
    case TraceKind::kTxSuccess:
      return "tx_success";
    case TraceKind::kTxCorrupted:
      return "tx_corrupted";
    case TraceKind::kRetransmissionScheduled:
      return "retx_scheduled";
    case TraceKind::kBerDrift:
      return "ber_drift";
    case TraceKind::kPlanSwap:
      return "plan_swap";
    case TraceKind::kLoadShed:
      return "load_shed";
    case TraceKind::kNodeCrash:
      return "node_crash";
    case TraceKind::kNodeRestart:
      return "node_restart";
    case TraceKind::kChannelDown:
      return "channel_down";
    case TraceKind::kChannelUp:
      return "channel_up";
    case TraceKind::kFailover:
      return "failover";
    case TraceKind::kVoteResolved:
      return "vote_resolved";
    case TraceKind::kTemplateRebuild:
      return "template_rebuild";
    case TraceKind::kModeChange:
      return "mode_change";
    case TraceKind::kShedByMode:
      return "shed_by_mode";
    case TraceKind::kMatchUp:
      return "match_up";
    case TraceKind::kInfo:
      return "info";
  }
  return "unknown";
}

void Trace::emit(Time at, TraceKind kind, std::int64_t a, std::int64_t b,
                 std::int64_t c, std::int64_t d, std::string note) {
  records_.push_back(TraceRecord{at, kind, a, b, c, d, std::move(note)});
}

std::size_t Trace::count(TraceKind kind) const {
  std::size_t n = 0;
  for (const auto& r : records_) {
    if (r.kind == kind) ++n;
  }
  return n;
}

std::string Trace::dump() const {
  std::string out;
  char line[256];
  for (const auto& r : records_) {
    std::snprintf(line, sizeof line,
                  "%14s %-16s a=%lld b=%lld c=%lld d=%lld %s\n",
                  to_string(r.at).c_str(), to_string(r.kind),
                  static_cast<long long>(r.a), static_cast<long long>(r.b),
                  static_cast<long long>(r.c), static_cast<long long>(r.d),
                  r.note.c_str());
    out += line;
  }
  return out;
}

}  // namespace coeff::sim
