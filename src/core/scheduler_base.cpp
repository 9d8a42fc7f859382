#include "core/scheduler_base.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace coeff::core {

namespace {

/// The CHI queue entry of dynamic instance `inst` of `m`. FTDMA: lower
/// frame id wins, so every entry gets priority = frame id and each
/// node's queue is ordered by frame id; queued_dynamic_next_frame relies
/// on it.
flexray::PendingMessage dynamic_pending(const Instance& inst,
                                        const net::Message& m) {
  flexray::PendingMessage pending;
  pending.instance = inst.key;
  pending.frame_id = units::to_frame_id(units::SlotId{m.frame_id});
  pending.payload_bits = m.size_bits;
  pending.release = inst.release;
  pending.deadline = inst.abs_deadline;
  pending.priority = m.frame_id;
  return pending;
}

}  // namespace

SchedulerBase::SchedulerBase(const flexray::ClusterConfig& cfg,
                             net::MessageSet statics, net::MessageSet dynamics,
                             sim::Time batch_window,
                             std::optional<sched::StaticScheduleTable> table)
    : cfg_(cfg),
      statics_(std::move(statics)),
      dynamics_(std::move(dynamics)),
      table_(table.has_value()
                 ? std::move(*table)
                 : sched::StaticScheduleTable::build(statics_, cfg_)),
      batch_window_(batch_window),
      cycle_duration_(cfg.cycle_duration()) {
  statics_.validate();
  dynamics_.validate();
  if (batch_window_ <= sim::Time::zero()) {
    throw std::invalid_argument("SchedulerBase: non-positive batch window");
  }
  stats_.bus_bit_rate = static_cast<double>(cfg_.bus_bit_rate);

  // Every per-node array is sized by the cluster, so a message must name
  // one of its nodes (validate() already refused negative ones).
  for (const net::MessageSet* set : {&statics_, &dynamics_}) {
    for (const auto& m : set->messages()) {
      if (m.node >= cfg_.num_nodes) {
        throw std::invalid_argument(
            "SchedulerBase: message " + std::to_string(m.id) + ": node " +
            std::to_string(m.node) + " outside the cluster's " +
            std::to_string(cfg_.num_nodes) + " nodes");
      }
    }
  }
  nodes_.resize(static_cast<std::size_t>(cfg_.num_nodes));
  for (const auto& a : table_.assignments()) {
    // Assignments for ids not in the base set (e.g. FSPEC's redundant
    // clones) are registered by the subclass, which knows the mapping.
    const net::Message* m = statics_.find(a.message_id);
    if (m == nullptr) continue;
    nodes_.at(static_cast<std::size_t>(m->node)).static_buffers().add_slot(
        a.slot);
  }
  // The frame-id → message table for the FTDMA hot path. Two or more
  // messages may share a dynamic frame id (§II-B) as long as one node
  // owns the id: the node's priority queue decides which goes out in
  // the current cycle. validate() bounds the ids, and so the table, to
  // FlexRay's 11-bit frame-id space.
  int max_frame_id = 0;
  for (const auto& m : dynamics_.messages()) {
    max_frame_id = std::max(max_frame_id, m.frame_id);
  }
  dynamic_frame_lut_.assign(static_cast<std::size_t>(max_frame_id) + 1,
                            nullptr);
  for (const auto& m : dynamics_.messages()) {
    if (m.frame_id <= cfg_.g_number_of_static_slots) {
      throw std::invalid_argument(
          "SchedulerBase: dynamic message " + std::to_string(m.id) +
          " frame id must exceed the static slot count");
    }
    const net::Message*& owner =
        dynamic_frame_lut_[static_cast<std::size_t>(m.frame_id)];
    if (owner == nullptr) {
      owner = &m;
    } else if (owner->node != m.node) {
      throw std::invalid_argument(
          "SchedulerBase: dynamic frame id " + std::to_string(m.frame_id) +
          " shared across different nodes");
    }
  }

  // Per-message state lives in arrays indexed by position, but arrivals,
  // plans and traces name messages by id: one id must name one message.
  for (std::size_t q = 0; q < dynamics_.size(); ++q) {
    dynamic_positions_.emplace_back(dynamics_.messages()[q].id, q);
  }
  std::sort(dynamic_positions_.begin(), dynamic_positions_.end());
  for (const auto& m : statics_.messages()) {
    if (dynamic_position(m.id).has_value()) {
      throw std::invalid_argument("SchedulerBase: message id " +
                                  std::to_string(m.id) +
                                  " is both static and dynamic");
    }
  }
  instances_ = InstanceStore(statics_.size() + dynamics_.size());
  for (const auto& m : statics_.messages()) {
    placements_.push_back(table_.assignment_of(m.id));
  }
  next_static_index_.assign(statics_.size(), 0);
  next_dynamic_index_.assign(dynamics_.size(), 0);
  node_down_.assign(static_cast<std::size_t>(cfg_.num_nodes), 0);

  // The one template build: table_ and statics_ never change after
  // construction. Liveness, channel availability and k_z change at run
  // time, and the schemes read them from their own state, so the
  // template carries no budget.
  tpl_.rebuild(table_, statics_, nullptr, cfg_.g_number_of_static_slots);
}

std::optional<std::size_t> SchedulerBase::dynamic_position(
    int message_id) const {
  const auto it = std::lower_bound(
      dynamic_positions_.begin(), dynamic_positions_.end(), message_id,
      [](const std::pair<int, std::size_t>& entry, int id) {
        return entry.first < id;
      });
  if (it == dynamic_positions_.end() || it->first != message_id) {
    return std::nullopt;
  }
  return it->second;
}

std::optional<flexray::TxRequest> SchedulerBase::take_dynamic(
    units::CycleIndex cycle, units::SlotId slot_counter,
    units::MinislotId minislot, std::int64_t minislots_remaining) {
  const net::Message* m =
      dynamic_message_for_frame(static_cast<int>(slot_counter.value()));
  if (m == nullptr) return std::nullopt;
  auto& queue = nodes_[static_cast<std::size_t>(m->node)].dynamic_queue();
  const auto pending = queue.peek(units::to_frame_id(slot_counter));
  if (!pending.has_value()) return std::nullopt;
  if (pending->release > cfg_.minislot_start(cycle, minislot)) {
    return std::nullopt;
  }
  if (cfg_.minislots_for(pending->payload_bits) > minislots_remaining) {
    return std::nullopt;
  }
  if (minislot + 1 > cfg_.latest_tx_minislot()) return std::nullopt;
  queue.pop(pending->instance);
  flexray::TxRequest req;
  req.instance = pending->instance;
  req.frame_id = units::to_frame_id(slot_counter);
  req.sender = units::NodeId{m->node};
  req.payload_bits = pending->payload_bits;
  return req;
}

std::int64_t SchedulerBase::queued_dynamic_next_frame(
    std::int64_t min_frame) const {
  // Every queued entry has priority = frame id (on_arrival), so each
  // queue is ordered by frame and its first frame >= min_frame is its
  // smallest one.
  std::int64_t best = flexray::kNoDynamicFrame;
  for (const auto& node : nodes_) {
    for (const auto& pending : node.dynamic_queue().contents()) {
      const std::int64_t frame = pending.frame_id.value();
      if (frame < min_frame) continue;
      if (frame < best) best = frame;
      break;
    }
  }
  return best;
}

void SchedulerBase::stage_mirror(units::SlotId slot_counter,
                                 const flexray::TxRequest& request) {
  mirrors_.emplace_back(slot_counter, request);
}

std::optional<flexray::TxRequest> SchedulerBase::take_mirror(
    units::SlotId slot_counter) {
  const auto it = std::lower_bound(
      mirrors_.begin(), mirrors_.end(), slot_counter,
      [](const auto& entry, units::SlotId slot) { return entry.first < slot; });
  if (it == mirrors_.end() || it->first != slot_counter) return std::nullopt;
  const flexray::TxRequest request = it->second;
  mirrors_.erase(it);
  return request;
}

std::int64_t SchedulerBase::mirror_next_frame(std::int64_t min_frame) const {
  for (const auto& [slot_counter, _] : mirrors_) {
    if (slot_counter.value() >= min_frame) return slot_counter.value();
  }
  return flexray::kNoDynamicFrame;
}

void SchedulerBase::forfeit_mirrors() {
  // The staging must drain within its cycle; anything left means channel
  // B never carried the copy (both channels see identical arbitration,
  // so this should not happen). Forfeit such copies.
  for (const auto& [_, request] : mirrors_) {
    if (Instance* inst = instances_.find(request.instance)) {
      cancel_copies(*inst, 1);
    }
  }
  mirrors_.clear();
}

bool SchedulerBase::node_alive(int node) const {
  const auto idx = static_cast<std::size_t>(node);
  return node >= 0 && (idx >= node_down_.size() || node_down_[idx] == 0);
}

int SchedulerBase::channels_available() const {
  int n = 0;
  for (const bool down : channel_down_) {
    if (!down) ++n;
  }
  return n;
}

void SchedulerBase::settle_source_loss(int node) {
  instances_.erase_if([&](Instance& inst) {
    if (inst.node != node) return false;
    cancel_copies(inst, inst.copies_required - inst.copies_sent);
    if (!inst.delivered && !inst.miss_recorded) {
      ++segment(inst.kind).source_lost;
    }
    return true;
  });
  // Staged mirrors of the erased instances will never be carried.
  std::erase_if(mirrors_, [this](const auto& entry) {
    return instances_.find(entry.second.instance) == nullptr;
  });
}

void SchedulerBase::on_topology_event(const flexray::TopologyEvent& event,
                                      units::CycleIndex cycle, sim::Time at) {
  switch (event.kind) {
    case flexray::TopologyEventKind::kNodeCrash: {
      const auto idx = static_cast<std::size_t>(event.node.value());
      if (idx < node_down_.size()) node_down_[idx] = 1;
      ++stats_.node_crashes;
      // Power the host off: its CHI contents are gone, and whatever it
      // had in flight can no longer be produced.
      if (idx < nodes_.size()) nodes_[idx].shutdown();
      settle_source_loss(static_cast<int>(event.node.value()));
      on_node_down(event.node, cycle, at);
      break;
    }
    case flexray::TopologyEventKind::kNodeRestart: {
      const auto idx = static_cast<std::size_t>(event.node.value());
      if (idx < node_down_.size()) node_down_[idx] = 0;
      ++stats_.node_restarts;
      on_node_up(event.node, cycle, at);
      break;
    }
    case flexray::TopologyEventKind::kChannelDown:
      channel_down_[static_cast<std::size_t>(event.channel)] = true;
      ++stats_.channel_outages;
      break;
    case flexray::TopologyEventKind::kChannelUp:
      channel_down_[static_cast<std::size_t>(event.channel)] = false;
      break;
  }
}

void SchedulerBase::settle_vote(Instance& inst, bool accepted, sim::Time at) {
  if (inst.vote_settled) return;
  inst.vote_settled = true;
  if (accepted) {
    ++stats_.votes_accepted;
  } else {
    ++stats_.votes_rejected;
  }
  if (trace_ != nullptr) {
    trace_->emit(at, sim::TraceKind::kVoteResolved, inst.message_id,
                 accepted ? 1 : 0, inst.vote_ok, inst.vote_k);
  }
}

void SchedulerBase::add_copies(Instance& inst, int copies) {
  inst.copies_required += copies;
  owed_copies_ += copies;
}

void SchedulerBase::cancel_copies(Instance& inst, int copies) {
  const int outstanding = inst.copies_required - inst.copies_sent;
  const int cancelled = std::min(copies, outstanding);
  inst.copies_required -= cancelled;
  owed_copies_ -= cancelled;
}

void SchedulerBase::release_statics_until(sim::Time until) {
  const sim::Time cap = std::min(until, batch_window_);
  // Nothing due: every message's next release is at or past the cap.
  // The cached minimum makes idle cycles one comparison instead of a
  // full scan over the static set.
  if (next_static_release_ >= cap) return;
  sim::Time next_min = sim::Time::max();
  for (std::size_t z = 0; z < statics_.size(); ++z) {
    const net::Message& m = statics_.messages()[z];
    std::int64_t& next = next_static_index_[z];
    while (true) {
      const sim::Time release = m.offset + m.period * next;
      if (release >= cap) {
        if (release < next_min) next_min = release;
        break;
      }
      if (!node_alive(m.node)) {
        // The producing ECU is down: the instance is generated by the
        // application model but never reaches the CHI. Count it so
        // availability accounting stays complete, without creating an
        // instance nothing will ever transmit.
        ++segment(net::MessageKind::kStatic).released;
        ++segment(net::MessageKind::kStatic).source_lost;
        ++next;
        continue;
      }
      Instance& inst = instances_.create(z, m.id, next);
      inst.kind = net::MessageKind::kStatic;
      inst.node = m.node;
      inst.size_bits = m.size_bits;
      inst.release = release;
      inst.abs_deadline = release + m.deadline;
      inst.copies_required = 0;
      ++segment(net::MessageKind::kStatic).released;
      on_static_release(inst, m);
      ++next;
    }
  }
  next_static_release_ = next_min;
}

void SchedulerBase::on_arrival(int message_id, sim::Time at) {
  const std::optional<std::size_t> q = dynamic_position(message_id);
  if (!q.has_value()) {
    throw std::invalid_argument("SchedulerBase: unknown dynamic message " +
                                std::to_string(message_id));
  }
  const net::Message* m = &dynamics_.messages()[*q];
  std::int64_t& next = next_dynamic_index_[*q];
  if (!node_alive(m->node)) {
    ++next;
    ++segment(net::MessageKind::kDynamic).released;
    ++segment(net::MessageKind::kDynamic).source_lost;
    return;
  }
  Instance& inst =
      instances_.create(statics_.size() + *q, message_id, next++);
  inst.kind = net::MessageKind::kDynamic;
  inst.node = m->node;
  inst.size_bits = m->size_bits;
  inst.release = at;
  inst.abs_deadline = at + m->deadline;
  inst.copies_required = 0;
  ++segment(net::MessageKind::kDynamic).released;
  on_dynamic_release(inst, *m, dynamic_pending(inst, *m));
}

void SchedulerBase::on_cycle_start(units::CycleIndex cycle, sim::Time at) {
  if (channels_available() < flexray::kNumChannels) {
    ++stats_.channel_down_cycles;
  }
  release_statics_until(at + cycle_duration_);
  sweep(at);
  forfeit_mirrors();
  on_cycle_start_hook(cycle, at);
}

void SchedulerBase::on_cycle_end(units::CycleIndex /*cycle*/,
                                 sim::Time /*at*/) {}

void SchedulerBase::on_dynamic_declined(flexray::ChannelId /*channel*/,
                                        units::CycleIndex /*cycle*/,
                                        const flexray::TxRequest& request) {
  // Defensive: put the message back so it can retry in a later cycle.
  Instance* inst = instances_.find(request.instance);
  if (inst == nullptr) return;
  const std::size_t position = InstanceStore::position_of(inst->key);
  if (position < statics_.size()) return;
  const net::Message& m = dynamics_.messages()[position - statics_.size()];
  nodes_[static_cast<std::size_t>(m.node)].dynamic_queue().push(
      dynamic_pending(*inst, m));
}

void SchedulerBase::on_tx_complete(const flexray::TxOutcome& outcome) {
  Instance* inst = instances_.find(outcome.request.instance);
  if (inst == nullptr) {
    throw std::logic_error("on_tx_complete: unknown instance");
  }
  ++inst->copies_sent;
  --owed_copies_;
  last_activity_ = std::max(last_activity_, outcome.end);
  SegmentMetrics& seg = segment(inst->kind);
  ++seg.copies_sent;
  if (outcome.corrupted) ++seg.copies_corrupted;
  if (outcome.lost) ++stats_.frames_lost;
  if (outcome.request.failover && !outcome.lost) ++stats_.failovers;
  if (outcome.request.retransmission) ++stats_.retransmission_copies_sent;

  // Acceptance: plain schemes deliver on the first uncorrupted copy; a
  // voted instance delivers when a strict majority of its replicas
  // arrived clean (NMR majority accept).
  bool accepted_now = false;
  if (inst->vote_k > 0) {
    if (!outcome.corrupted) ++inst->vote_ok;
    const int majority = inst->vote_k / 2 + 1;
    if (!inst->delivered && inst->vote_ok >= majority) {
      accepted_now = true;
      settle_vote(*inst, true, outcome.end);
    } else if (!inst->vote_settled &&
               inst->copies_sent >= inst->copies_required) {
      // All replicas are on the wire and the majority is unreachable.
      settle_vote(*inst, false, outcome.end);
    }
  } else {
    accepted_now = !outcome.corrupted && !inst->delivered;
  }

  if (accepted_now) {
    inst->delivered = true;
    seg.useful_payload_bits += inst->size_bits;
    if (outcome.segment == flexray::Segment::kStatic) {
      stats_.useful_bits_static_wire += inst->size_bits;
    } else {
      stats_.useful_bits_dynamic_wire += inst->size_bits;
    }
    seg.latency.add(outcome.end - inst->release);
    if (outcome.request.failover) {
      stats_.failover_latency.add(outcome.end - inst->release);
    }
    if (outcome.end <= inst->abs_deadline) {
      ++seg.delivered;
    } else if (!inst->miss_recorded) {
      // First success landed late: that is a deadline miss.
      inst->miss_recorded = true;
      ++seg.missed;
    }
  }
  if (inst->copies_sent >= inst->copies_required) {
    // The instance's full transmission (all copies) has left the wire.
    seg.completion.add(outcome.end - inst->release);
  }
}

void SchedulerBase::sweep(sim::Time now) {
  // Expired dynamic queue entries can never be delivered in time: unless
  // the run drains the whole batch, cancel all their outstanding copies
  // (the miss itself is recorded in the instance sweep below). Drain
  // runs keep expired entries (the batch must fully transmit) but still
  // abandon entries the scheme demonstrably cannot serve — 15 periods
  // past the deadline — so an unservable frame id cannot stall the run.
  for (auto& node : nodes_) {
    if (node.dynamic_queue().empty()) continue;
    const auto dropped =
        drop_expired_dynamics_
            ? node.dynamic_queue().drop_expired(now)
            : node.dynamic_queue().drop_if([now](
                  const flexray::PendingMessage& m) {
                const sim::Time patience = (m.deadline - m.release) * 15;
                return m.deadline + patience < now;
              });
    for (const auto& entry : dropped) {
      Instance* inst = instances_.find(entry.instance);
      if (inst != nullptr) {
        cancel_copies(*inst, inst->copies_required - inst->copies_sent);
      }
    }
  }
  // Settle in ascending key order, erasing in place.
  instances_.erase_if([&](Instance& inst) {
    if (!inst.delivered && !inst.miss_recorded && inst.abs_deadline < now) {
      inst.miss_recorded = true;
      ++segment(inst.kind).missed;
      if (inst.vote_k > 0) settle_vote(inst, false, now);
    }
    return inst.copies_sent >= inst.copies_required &&
           (inst.delivered || inst.miss_recorded);
  });
}

void SchedulerBase::finalize(sim::Time now) {
  sweep(now);
  instances_.erase_if([&](Instance& inst) {
    if (!inst.delivered && !inst.miss_recorded) {
      // Nothing more will be sent for the batch; an undelivered instance
      // is a miss even if its deadline is formally in the future.
      inst.miss_recorded = true;
      ++segment(inst.kind).missed;
      if (inst.vote_k > 0) settle_vote(inst, false, now);
    }
    return true;
  });
}

}  // namespace coeff::core
