#include "support/reference_cluster.hpp"

#include <atomic>
#include <stdexcept>
#include <string>

namespace coeff::flexray {

namespace {
std::atomic<std::int64_t> g_static_slot_calls{0};
}  // namespace

ReferenceCluster::ReferenceCluster(const ClusterConfig& cfg,
                                   TransmissionPolicy& policy,
                                   CorruptionFn corruption, sim::Trace* trace)
    : cfg_(cfg),
      policy_(policy),
      channels_{Channel{ChannelId::kA, corruption},
                Channel{ChannelId::kB, corruption}},
      trace_(trace) {
  cfg_.validate();
}

void ReferenceCluster::set_arrivals(const std::vector<Arrival>& arrivals) {
  for (const Arrival& a : arrivals) {
    engine_.schedule_at(a.at, [&policy = policy_, a] {
      policy.on_arrival(a.message_id, a.at);
    });
  }
}

std::int64_t ReferenceCluster::static_slot_calls() {
  return g_static_slot_calls.load(std::memory_order_relaxed);
}

void ReferenceCluster::run_cycles(std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    execute_cycle(next_cycle_);
    ++next_cycle_;
  }
}

void ReferenceCluster::run_until(sim::Time t) {
  while (cfg_.cycle_start(next_cycle_) < t) {
    execute_cycle(next_cycle_);
    ++next_cycle_;
  }
}

void ReferenceCluster::execute_cycle(units::CycleIndex cycle) {
  const sim::Time start = cfg_.cycle_start(cycle);
  engine_.run_until(start);  // arrivals due before this cycle
  if (trace_) trace_->emit(start, sim::TraceKind::kCycleStart, cycle.value());
  policy_.on_cycle_start(cycle, start);
  apply_topology_events(cycle, start);

  execute_static_segment(cycle);
  execute_dynamic_segment(cycle, ChannelId::kA);
  execute_dynamic_segment(cycle, ChannelId::kB);

  const sim::Time end = cfg_.cycle_start(cycle + 1);
  engine_.run_until(end);
  policy_.on_cycle_end(cycle, end);
}

void ReferenceCluster::apply_topology_events(units::CycleIndex cycle,
                                             sim::Time at) {
  if (faults_ == nullptr) return;
  for (const TopologyEvent& ev : faults_->poll(at)) {
    switch (ev.kind) {
      case TopologyEventKind::kChannelDown:
        channels_[static_cast<std::size_t>(ev.channel)].set_available(false);
        if (trace_) {
          trace_->emit(at, sim::TraceKind::kChannelDown,
                       static_cast<std::int64_t>(ev.channel), cycle.value());
        }
        break;
      case TopologyEventKind::kChannelUp:
        channels_[static_cast<std::size_t>(ev.channel)].set_available(true);
        if (trace_) {
          trace_->emit(at, sim::TraceKind::kChannelUp,
                       static_cast<std::int64_t>(ev.channel), cycle.value());
        }
        break;
      case TopologyEventKind::kNodeCrash:
        if (trace_) {
          trace_->emit(at, sim::TraceKind::kNodeCrash, ev.node.value(),
                       cycle.value());
        }
        break;
      case TopologyEventKind::kNodeRestart:
        if (trace_) {
          trace_->emit(at, sim::TraceKind::kNodeRestart, ev.node.value(),
                       cycle.value());
        }
        break;
    }
    policy_.on_topology_event(ev, cycle, at);
  }
}

bool ReferenceCluster::structural_corruption(const TxRequest& req,
                                             units::SlotId slot,
                                             ChannelId channel,
                                             sim::Time at) const {
  if (faults_ == nullptr) return false;
  return faults_->slot_jammed(slot, channel, at) ||
         faults_->node_out_of_sync(req.sender, at);
}

void ReferenceCluster::execute_static_segment(units::CycleIndex cycle) {
  const ClusterConfig& cfg = config();
  for (units::SlotId slot{1};
       slot.value() <= cfg.g_number_of_static_slots; ++slot) {
    const sim::Time slot_start = cfg.static_slot_start(cycle, slot);
    engine_.run_until(slot_start);
    for (auto& channel : channels_) {
      auto req = policy_.static_slot(channel.id(), cycle, slot);
      g_static_slot_calls.fetch_add(1, std::memory_order_relaxed);
      if (!req) continue;
      if (req->frame_id != units::to_frame_id(slot)) {
        throw std::logic_error(
            "Cluster: static frame id " +
            std::to_string(req->frame_id.value()) + " does not match slot " +
            std::to_string(slot.value()));
      }
      if (req->payload_bits > cfg.static_slot_capacity_bits()) {
        throw std::logic_error("Cluster: static payload exceeds slot capacity");
      }
      if (!channel.available()) {
        // Blackout: the frame never reaches the wire. The outcome is
        // still reported so the scheduler settles the copy instead of
        // waiting forever for a channel that cannot answer; nothing is
        // traced (receivers observe silence, not a corrupted frame).
        policy_.on_tx_complete(channel.lose(*req, slot_start,
                                            cfg.static_slot_duration(), cycle,
                                            slot, Segment::kStatic));
        continue;
      }
      // A static slot always occupies its full fixed duration on the wire.
      const TxOutcome out =
          channel.transmit(*req, slot_start, cfg.static_slot_duration(), cycle,
                           slot, Segment::kStatic,
                           structural_corruption(*req, slot, channel.id(),
                                                 slot_start));
      if (trace_) {
        trace_->emit(slot_start,
                     out.corrupted ? sim::TraceKind::kTxCorrupted
                                   : sim::TraceKind::kTxSuccess,
                     req->sender.value(), req->frame_id.value(),
                     static_cast<std::int64_t>(channel.id()),
                     req->payload_bits, req->retransmission ? "retx" : "");
        if (req->failover) {
          trace_->emit(slot_start, sim::TraceKind::kFailover,
                       req->sender.value(), slot.value(),
                       static_cast<std::int64_t>(channel.id()),
                       req->payload_bits);
        }
      }
      policy_.on_tx_complete(out);
    }
  }
}

void ReferenceCluster::execute_dynamic_segment(units::CycleIndex cycle,
                                               ChannelId cid) {
  const ClusterConfig& cfg = config();
  Channel& channel = channels_[static_cast<std::size_t>(cid)];
  units::MinislotId minislot{0};
  units::SlotId slot_counter{cfg.g_number_of_static_slots + 1};

  while (minislot.value() < cfg.g_number_of_minislots) {
    const sim::Time at = cfg.minislot_start(cycle, minislot);
    engine_.run_until(at);
    const std::int64_t remaining =
        cfg.g_number_of_minislots - minislot.value();
    auto req =
        policy_.dynamic_slot(cid, cycle, slot_counter, minislot, remaining);
    bool sent = false;
    if (req) {
      const std::int64_t need = cfg.minislots_for(req->payload_bits);
      // FTDMA rule: a transmission may start only at or before pLatestTx
      // and must complete within the dynamic segment.
      const bool starts_in_time = minislot + 1 <= cfg.latest_tx_minislot();
      if (starts_in_time && need <= remaining) {
        const sim::Time tx_start =
            at + units::to_time(cfg.gd_minislot_action_point_offset,
                                cfg.gd_macrotick);
        if (!channel.available()) {
          // Blackout: the sender clocks its frame into a dark wire —
          // FTDMA timing advances exactly as for a real send, but the
          // frame is lost and nothing is traced or charged to stats.
          policy_.on_tx_complete(
              channel.lose(*req, tx_start,
                           cfg.transmission_time(req->payload_bits), cycle,
                           slot_counter, Segment::kDynamic));
          minislot = minislot + need;
          sent = true;
          ++slot_counter;
          continue;
        }
        const TxOutcome out =
            channel.transmit(*req, tx_start,
                             cfg.transmission_time(req->payload_bits), cycle,
                             slot_counter, Segment::kDynamic,
                             structural_corruption(*req, slot_counter,
                                                   channel.id(), tx_start));
        channel.account_minislots(need);
        if (trace_) {
          trace_->emit(tx_start,
                       out.corrupted ? sim::TraceKind::kTxCorrupted
                                     : sim::TraceKind::kTxSuccess,
                       req->sender.value(), req->frame_id.value(),
                       static_cast<std::int64_t>(cid), req->payload_bits,
                       req->retransmission ? "retx" : "");
        }
        policy_.on_tx_complete(out);
        minislot = minislot + need;
        sent = true;
      } else {
        policy_.on_dynamic_declined(cid, cycle, *req);
      }
    }
    if (!sent) {
      ++minislot;  // empty dynamic slot consumes exactly one minislot
    }
    ++slot_counter;
  }
}

}  // namespace coeff::flexray
