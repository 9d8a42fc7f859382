#include "flexray/cluster.hpp"

#include <stdexcept>
#include <string>

namespace coeff::flexray {

Cluster::Cluster(sim::Engine& engine, const ClusterConfig& cfg,
                 TransmissionPolicy& policy, CorruptionFn corruption,
                 sim::Trace* trace)
    : engine_(engine),
      timing_(cfg),
      policy_(policy),
      channels_{Channel{ChannelId::kA, corruption},
                Channel{ChannelId::kB, corruption}},
      trace_(trace) {}

void Cluster::run_cycles(std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    execute_cycle(next_cycle_);
    ++next_cycle_;
  }
}

void Cluster::run_until(sim::Time t) {
  while (timing_.cycle_start(next_cycle_) < t) {
    execute_cycle(next_cycle_);
    ++next_cycle_;
  }
}

void Cluster::execute_cycle(units::CycleIndex cycle) {
  const sim::Time start = timing_.cycle_start(cycle);
  engine_.run_until(start);  // deliver arrivals due before this cycle
  if (trace_) trace_->emit(start, sim::TraceKind::kCycleStart, cycle.value());
  policy_.on_cycle_start(cycle, start);
  apply_topology_events(cycle, start);

  arena_.reset();
  execute_static_segment(cycle);
  execute_dynamic_segment(cycle, ChannelId::kA);
  execute_dynamic_segment(cycle, ChannelId::kB);

  const sim::Time end = timing_.cycle_start(cycle + 1);
  engine_.run_until(end);
  policy_.on_cycle_end(cycle, end);
}

void Cluster::apply_topology_events(units::CycleIndex cycle, sim::Time at) {
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

bool Cluster::structural_corruption(const TxRequest& req, units::SlotId slot,
                                    ChannelId channel, sim::Time at) const {
  if (faults_ == nullptr) return false;
  return faults_->slot_jammed(slot, channel, at) ||
         faults_->node_out_of_sync(req.sender, at);
}

// --- The cycle walk (DESIGN.md §12) --------------------------------------
//
// Equivalence with the slot-by-slot reference walk
// (tests/support/reference_cluster.cpp), in brief: every policy's slot
// decisions never read state written by same-cycle on_tx_complete calls
// (TransmissionPolicy::decide_static_chunk), so a run of static-slot
// decisions can be taken before any of their outcomes commit as long as
// (a) decisions keep the reference call order (slot-major, channel A
// before B), (b) commits keep that same order, and (c) no engine event
// fires inside the run — events (dynamic arrivals) do mutate decision
// state, so a pending event bounds the chunk and fires at exactly the
// sequence point the reference would fire it (between the previous
// slot's commit and the next slot's decision). Verdicts are drawn per
// chunk in wire order through the batch hook, which walks the same model
// the CorruptionFn wraps — an identical verdict stream. Structural
// corruption (babble, drift) only overrides a drawn verdict, and its
// queries are answered from state that changes only at poll(), so
// asking them at commit with the reference's (slot, channel, start)
// gives the reference's answers.

void Cluster::execute_static_segment(units::CycleIndex cycle) {
  const ClusterConfig& cfg = config();
  const std::int64_t nslots = cfg.g_number_of_static_slots;
  const sim::Time slot_duration = cfg.static_slot_duration();

  /// One honoured static-slot request, staged between decision and
  /// commit. Trivially destructible: lives in the per-cycle arena.
  struct Decision {
    TxRequest req;
    sim::Time slot_start;
    std::int64_t slot;
    std::uint8_t channel;
    bool lost;  ///< channel dark: lose() instead of transmit()
  };
  Decision* decisions =
      arena_.allocate<Decision>(static_cast<std::size_t>(2 * nslots));

  std::int64_t slot = 1;
  // Slot starts form an arithmetic sequence; one anchor lookup replaces
  // a per-slot timing call (same value: static_slot_start(c, s) =
  // anchor + duration * (s - 1)).
  const sim::Time seg_base = timing_.static_slot_start(cycle, units::SlotId{1});
  // The queue head only moves inside run_until (events are scheduled by
  // event callbacks, never by decide/commit code), so it is re-read only
  // after running the engine instead of once per slot.
  sim::Time next_event = engine_.next_event_time();
  while (slot <= nslots) {
    // Chunk = maximal run of slots strictly before the next engine
    // event; an event due at or before this slot's start fires first,
    // exactly as the reference walk's per-slot run_until would.
    const sim::Time slot_start = seg_base + slot_duration * (slot - 1);
    if (next_event <= slot_start) {
      engine_.run_until(slot_start);
      next_event = engine_.next_event_time();
      continue;  // re-read: callbacks may schedule more events
    }
    // Largest s with seg_base + duration * (s - 1) < next_event; the
    // subtraction cannot underflow because slot_start < next_event.
    std::int64_t chunk_end =
        1 + ((next_event - seg_base).ns() - 1) / slot_duration.ns();
    if (chunk_end > nslots) chunk_end = nslots;

    // Decide phase: reference call order, no commits yet. The policy
    // may serve the whole chunk from its batched fast path; the sink
    // applies the per-request validation.
    struct DecisionSink final : TransmissionPolicy::StaticChunkSink {
      Cluster* cluster;
      units::CycleIndex cycle;
      sim::Time seg_base;
      sim::Time slot_duration;
      std::int64_t capacity_bits;
      Decision* decisions;
      std::size_t n_decisions = 0;
      std::size_t n_wire = 0;
      void stage(units::SlotId slot, ChannelId channel,
                 const TxRequest& req) override {
        if (req.frame_id != units::to_frame_id(slot)) {
          throw std::logic_error(
              "Cluster: static frame id " +
              std::to_string(req.frame_id.value()) +
              " does not match slot " + std::to_string(slot.value()));
        }
        if (req.payload_bits > capacity_bits) {
          throw std::logic_error(
              "Cluster: static payload exceeds slot capacity");
        }
        Decision& d = decisions[n_decisions++];
        d.req = req;
        d.slot_start = seg_base + slot_duration * (slot.value() - 1);
        d.slot = slot.value();
        d.channel = static_cast<std::uint8_t>(channel);
        d.lost = !cluster->channels_[static_cast<std::size_t>(channel)]
                      .available();
        if (!d.lost) ++n_wire;
      }
    };
    DecisionSink sink;
    sink.cluster = this;
    sink.cycle = cycle;
    sink.seg_base = seg_base;
    sink.slot_duration = slot_duration;
    sink.capacity_bits = cfg.static_slot_capacity_bits();
    sink.decisions = decisions;
    policy_.decide_static_chunk(cycle, slot, chunk_end, sink);
    const std::size_t n_decisions = sink.n_decisions;
    const std::size_t n_wire = sink.n_wire;

    // Verdict phase: one batched draw over the chunk's wire frames, in
    // wire order. Falls back to per-frame draws at commit when no batch
    // hook is installed.
    bool* verdicts = nullptr;
    if (batch_corruption_ && n_wire > 0) {
      VerdictQuery* queries = arena_.allocate<VerdictQuery>(n_wire);
      verdicts = arena_.allocate<bool>(n_wire);
      std::size_t qi = 0;
      for (std::size_t i = 0; i < n_decisions; ++i) {
        if (decisions[i].lost) continue;
        queries[qi].request = &decisions[i].req;
        queries[qi].channel = static_cast<ChannelId>(decisions[i].channel);
        queries[qi].start = decisions[i].slot_start;
        ++qi;
      }
      batch_corruption_(queries, n_wire, verdicts);
    }

    // Commit phase: same order as the decisions; traces and policy
    // callbacks land exactly where the reference walk puts them.
    std::size_t vi = 0;
    for (std::size_t i = 0; i < n_decisions; ++i) {
      const Decision& d = decisions[i];
      Channel& channel = channels_[d.channel];
      if (d.lost) {
        policy_.on_tx_complete(channel.lose(d.req, d.slot_start, slot_duration,
                                            cycle, units::SlotId{d.slot},
                                            Segment::kStatic));
        continue;
      }
      const units::SlotId slot_id{d.slot};
      const bool forced =
          structural_corruption(d.req, slot_id, channel.id(), d.slot_start);
      const TxOutcome out =
          verdicts != nullptr
              ? channel.transmit_with_verdict(d.req, d.slot_start,
                                              slot_duration, cycle, slot_id,
                                              Segment::kStatic, verdicts[vi++],
                                              forced)
              : channel.transmit(d.req, d.slot_start, slot_duration, cycle,
                                 slot_id, Segment::kStatic, forced);
      if (trace_) {
        trace_->emit(d.slot_start,
                     out.corrupted ? sim::TraceKind::kTxCorrupted
                                   : sim::TraceKind::kTxSuccess,
                     d.req.sender.value(), d.req.frame_id.value(),
                     static_cast<std::int64_t>(d.channel), d.req.payload_bits,
                     d.req.retransmission ? "retx" : "");
        if (d.req.failover) {
          trace_->emit(d.slot_start, sim::TraceKind::kFailover,
                       d.req.sender.value(), d.slot,
                       static_cast<std::int64_t>(d.channel),
                       d.req.payload_bits);
        }
      }
      policy_.on_tx_complete(out);
    }

    slot = chunk_end + 1;
  }
}

void Cluster::execute_dynamic_segment(units::CycleIndex cycle, ChannelId cid) {
  const ClusterConfig& cfg = config();
  Channel& channel = channels_[static_cast<std::size_t>(cid)];
  const std::int64_t nminislots = cfg.g_number_of_minislots;
  const sim::Time minislot_duration = cfg.minislot_duration();
  units::MinislotId minislot{0};
  units::SlotId slot_counter{cfg.g_number_of_static_slots + 1};

  // Same caching as the static walk: the queue head only moves inside
  // run_until, so one re-read per engine run replaces one per minislot.
  sim::Time next_event = engine_.next_event_time();
  while (minislot.value() < nminislots) {
    const sim::Time at = timing_.minislot_start(cycle, minislot);
    if (next_event <= at) {
      engine_.run_until(at);
      next_event = engine_.next_event_time();
    }
    const std::int64_t remaining = nminislots - minislot.value();
    auto req =
        policy_.dynamic_slot(cid, cycle, slot_counter, minislot, remaining);
    bool sent = false;
    if (req) {
      const std::int64_t need = cfg.minislots_for(req->payload_bits);
      const bool starts_in_time = minislot + 1 <= cfg.latest_tx_minislot();
      if (starts_in_time && need <= remaining) {
        const sim::Time tx_start =
            at + units::to_time(cfg.gd_minislot_action_point_offset,
                                cfg.gd_macrotick);
        if (!channel.available()) {
          policy_.on_tx_complete(
              channel.lose(*req, tx_start,
                           cfg.transmission_time(req->payload_bits), cycle,
                           slot_counter, Segment::kDynamic));
          minislot = minislot + need;
          sent = true;
          ++slot_counter;
          continue;
        }
        const TxOutcome out = channel.transmit(
            *req, tx_start, cfg.transmission_time(req->payload_bits), cycle,
            slot_counter, Segment::kDynamic,
            structural_corruption(*req, slot_counter, cid, tx_start));
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
      // Idle (or declined) minislot. When the policy can prove the next
      // possible transmission sits at a higher slot counter, skip the
      // idle minislots in one jump — each skipped decision would have
      // been a side-effect-free nullopt. Events bound the jump: a
      // pending arrival may enqueue a frame for any counter, so no
      // minislot at or past its timestamp is skipped.
      std::int64_t extra = 0;
      if (!req) {
        const std::int64_t next_frame =
            policy_.dynamic_next_frame(cid, slot_counter.value() + 1);
        std::int64_t by_frame =
            next_frame == kNoDynamicFrame
                ? nminislots - 1 - minislot.value()
                : next_frame - slot_counter.value() - 1;
        if (next_event < sim::Time::max()) {
          // Largest i with minislot_start(minislot + i) < next_event.
          const std::int64_t gap_ns = (next_event - at).ns() - 1;
          const std::int64_t by_event =
              gap_ns < 0 ? 0 : gap_ns / minislot_duration.ns();
          if (by_event < by_frame) by_frame = by_event;
        }
        if (by_frame > 0) extra = by_frame;
      }
      minislot = minislot + (1 + extra);
      slot_counter = slot_counter + extra;
    }
    ++slot_counter;
  }
}

}  // namespace coeff::flexray
