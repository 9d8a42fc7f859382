#include "core/hosa.hpp"

namespace coeff::core {

HosaScheduler::HosaScheduler(const flexray::ClusterConfig& cfg,
                             net::MessageSet statics,
                             net::MessageSet dynamics, sim::Time batch_window)
    : SchedulerBase(cfg, std::move(statics), std::move(dynamics),
                    batch_window) {}

void HosaScheduler::on_static_release(Instance& inst, const net::Message& m) {
  const sched::SlotAssignment* a = placement_of(m);
  if (a == nullptr) return;  // unplaced: miss at the deadline
  add_copies(inst, 2);       // one mirrored pair per instance
  auto& buffers = nodes_.at(static_cast<std::size_t>(m.node)).static_buffers();
  if (auto old = buffers.read(a->slot); old.has_value()) {
    if (Instance* prev = instances_.find(old->instance)) {
      cancel_copies(*prev, prev->copies_required - prev->copies_sent);
    }
  }
  flexray::PendingMessage pending;
  pending.instance = inst.key;
  pending.frame_id = units::to_frame_id(a->slot);
  pending.payload_bits = m.size_bits;
  pending.release = inst.release;
  pending.deadline = inst.abs_deadline;
  buffers.write(a->slot, pending);
}

void HosaScheduler::on_dynamic_release(Instance& inst, const net::Message& m,
                                       const flexray::PendingMessage& pending) {
  add_copies(inst, 2);  // channel A frame + its channel B mirror
  nodes_.at(static_cast<std::size_t>(m.node)).dynamic_queue().push(pending);
}

std::optional<flexray::TxRequest> HosaScheduler::static_slot(
    flexray::ChannelId channel, units::CycleIndex cycle, units::SlotId slot) {
  const net::Message* m = tpl_.message_at(slot, cycle);
  if (m == nullptr) return std::nullopt;  // idle slacks stay idle
  auto& buffers = nodes_.at(static_cast<std::size_t>(m->node)).static_buffers();
  const auto pending = buffers.read(slot);
  if (!pending.has_value() ||
      pending->release > cfg_.static_slot_start(cycle, slot)) {
    return std::nullopt;
  }
  flexray::TxRequest req;
  req.instance = pending->instance;
  req.frame_id = units::to_frame_id(slot);
  req.sender = units::NodeId{m->node};
  req.payload_bits = pending->payload_bits;
  req.retransmission = channel == flexray::ChannelId::kB;
  if (channel == flexray::ChannelId::kB) {
    buffers.clear(slot);  // the mirrored pair is complete
  }
  return req;
}

void HosaScheduler::decide_static_chunk(
    units::CycleIndex cycle, std::int64_t slot_begin, std::int64_t slot_end,
    flexray::TransmissionPolicy::StaticChunkSink& sink) {
  // Equivalence with the default per-slot loop: static_slot is a pure
  // function of the template cell and the slot's buffer — the A call
  // reads the buffer, the B call reads the same (A does not clear) and
  // then clears it. Either both channels stage the identical request
  // (modulo the retransmission flag) or neither does, so one buffer
  // read per slot with the A/B pair staged together reproduces the
  // two-call sequence exactly.
  const sim::Time slot_duration = cfg_.static_slot_duration();
  sim::Time slot_start =
      cfg_.static_slot_start(cycle, units::SlotId{slot_begin});
  for (std::int64_t s = slot_begin; s <= slot_end;
       ++s, slot_start = slot_start + slot_duration) {
    const units::SlotId slot{s};
    const net::Message* m = tpl_.message_at(slot, cycle);
    if (m == nullptr) continue;
    auto& buffers =
        nodes_[static_cast<std::size_t>(m->node)].static_buffers();
    const auto pending = buffers.read(slot);
    if (!pending.has_value() || pending->release > slot_start) continue;
    flexray::TxRequest req;
    req.instance = pending->instance;
    req.frame_id = units::to_frame_id(slot);
    req.sender = units::NodeId{m->node};
    req.payload_bits = pending->payload_bits;
    req.retransmission = false;
    sink.stage(slot, flexray::ChannelId::kA, req);
    req.retransmission = true;
    sink.stage(slot, flexray::ChannelId::kB, req);
    buffers.clear(slot);  // the mirrored pair is complete
  }
}

std::optional<flexray::TxRequest> HosaScheduler::dynamic_slot(
    flexray::ChannelId channel, units::CycleIndex cycle,
    units::SlotId slot_counter, units::MinislotId minislot,
    std::int64_t minislots_remaining) {
  if (channel == flexray::ChannelId::kB) return take_mirror(slot_counter);
  auto req = take_dynamic(cycle, slot_counter, minislot, minislots_remaining);
  if (req) {
    flexray::TxRequest mirror = *req;
    mirror.retransmission = true;  // the mirror is the redundant copy
    stage_mirror(slot_counter, mirror);
  }
  return req;
}

std::int64_t HosaScheduler::dynamic_next_frame(flexray::ChannelId channel,
                                               std::int64_t min_frame) const {
  if (channel == flexray::ChannelId::kB) return mirror_next_frame(min_frame);
  return queued_dynamic_next_frame(min_frame);
}

}  // namespace coeff::core
