#include "core/fspec.hpp"

#include <stdexcept>

#include "core/experiment.hpp"

namespace coeff::core {

FspecScheduler::FspecScheduler(const flexray::ClusterConfig& cfg,
                               net::MessageSet statics,
                               net::MessageSet dynamics,
                               sim::Time batch_window,
                               const FspecOptions& options)
    : SchedulerBase(cfg, std::move(statics), std::move(dynamics), batch_window,
                    table_options(SchemeKind::kFspec)),
      options_(options) {
  if (options_.rounds < 1) {
    throw std::invalid_argument("FspecScheduler: rounds must be >= 1");
  }
  round_state_.assign(statics_.size(), RoundState{});
}

FspecScheduler::RoundState* FspecScheduler::round_at(units::SlotId slot,
                                                     units::CycleIndex cycle) {
  const net::Message* occupant = tpl_.message_at(slot, cycle);
  return occupant != nullptr ? &round_state_[static_position(*occupant)]
                             : nullptr;
}

void FspecScheduler::on_static_release(Instance& inst, const net::Message& m) {
  if (placement_of(m) == nullptr) {
    return;  // no exclusive slot left: counted as a miss at the deadline
  }
  add_copies(inst, 2 * options_.rounds);
  stats_.retransmission_copies_planned += 2 * (options_.rounds - 1);
  RoundState& st = round_state_[static_position(m)];
  if (st.current == 0) {
    st.current = inst.key;
    st.rounds_done = 0;
    return;
  }
  // The single staged buffer holds the latest value; a staged instance
  // that never got on the wire is overwritten and forfeits its copies.
  if (st.staged != 0) {
    if (Instance* prev = instances_.find(st.staged)) {
      cancel_copies(*prev, prev->copies_required - prev->copies_sent);
    }
  }
  st.staged = inst.key;
}

void FspecScheduler::on_dynamic_release(Instance& inst,
                                        const net::Message& m,
                                        const flexray::PendingMessage& pending) {
  add_copies(inst, 2);  // channel A frame + its channel B mirror
  nodes_.at(static_cast<std::size_t>(m.node)).dynamic_queue().push(pending);
}

std::optional<flexray::TxRequest> FspecScheduler::static_slot(
    flexray::ChannelId channel, units::CycleIndex cycle, units::SlotId slot) {
  RoundState* train = round_at(slot, cycle);
  if (train == nullptr) return std::nullopt;  // unreserved slots idle
  if (train->current == 0) {
    return std::nullopt;  // reserved but no fresh data: wasted occurrence
  }
  RoundState& st = *train;
  if (channel == flexray::ChannelId::kA && st.staged != 0 &&
      st.rounds_done >= 1) {
    // Best effort: once the old instance has had a shot, fresh data
    // preempts its remaining retransmission rounds.
    if (Instance* prev = instances_.find(st.current)) {
      cancel_copies(*prev, prev->copies_required - prev->copies_sent);
    }
    st.current = st.staged;
    st.staged = 0;
    st.rounds_done = 0;
  }
  Instance* inst = instances_.find(st.current);
  if (inst == nullptr) {
    throw std::logic_error("FspecScheduler: round train lost its instance");
  }
  if (inst->release > cfg_.static_slot_start(cycle, slot)) return std::nullopt;
  flexray::TxRequest req;
  req.instance = inst->key;
  req.frame_id = units::to_frame_id(slot);
  req.sender = units::NodeId{inst->node};
  req.payload_bits = inst->size_bits;
  req.retransmission = st.rounds_done > 0;
  // Round bookkeeping advances in on_tx_complete on the channel-B copy.
  return req;
}

void FspecScheduler::decide_static_chunk(
    units::CycleIndex cycle, std::int64_t slot_begin, std::int64_t slot_end,
    flexray::TransmissionPolicy::StaticChunkSink& sink) {
  // Equivalence with the default per-slot loop: the only mutation in
  // static_slot is the channel-A preemption rotation, which runs before
  // the release check; the B call then reads the post-rotation train and
  // builds the identical request (round bookkeeping advances in
  // on_tx_complete, which the chunk walk defers past the decide phase,
  // so rounds_done cannot change between the A and B calls). One pass
  // doing rotation + release check once and staging the A/B pair
  // reproduces the two-call sequence exactly.
  const sim::Time slot_duration = cfg_.static_slot_duration();
  sim::Time slot_start =
      cfg_.static_slot_start(cycle, units::SlotId{slot_begin});
  for (std::int64_t s = slot_begin; s <= slot_end;
       ++s, slot_start = slot_start + slot_duration) {
    const units::SlotId slot{s};
    RoundState* train = round_at(slot, cycle);
    if (train == nullptr) continue;  // unreserved slots idle
    if (train->current == 0) {
      continue;  // reserved but no fresh data: wasted occurrence
    }
    RoundState& st = *train;
    if (st.staged != 0 && st.rounds_done >= 1) {
      // Best effort: once the old instance has had a shot, fresh data
      // preempts its remaining retransmission rounds.
      if (Instance* prev = instances_.find(st.current)) {
        cancel_copies(*prev, prev->copies_required - prev->copies_sent);
      }
      st.current = st.staged;
      st.staged = 0;
      st.rounds_done = 0;
    }
    Instance* inst = instances_.find(st.current);
    if (inst == nullptr) {
      throw std::logic_error("FspecScheduler: round train lost its instance");
    }
    if (inst->release > slot_start) continue;
    flexray::TxRequest req;
    req.instance = inst->key;
    req.frame_id = units::to_frame_id(slot);
    req.sender = units::NodeId{inst->node};
    req.payload_bits = inst->size_bits;
    req.retransmission = st.rounds_done > 0;
    sink.stage(slot, flexray::ChannelId::kA, req);
    sink.stage(slot, flexray::ChannelId::kB, req);
  }
}

std::optional<flexray::TxRequest> FspecScheduler::dynamic_slot(
    flexray::ChannelId channel, units::CycleIndex cycle,
    units::SlotId slot_counter, units::MinislotId minislot,
    std::int64_t minislots_remaining) {
  // Channel B replays exactly what channel A carried in this slot.
  if (channel == flexray::ChannelId::kB) return take_mirror(slot_counter);
  auto req = take_dynamic(cycle, slot_counter, minislot, minislots_remaining);
  if (req) stage_mirror(slot_counter, *req);
  return req;
}

std::int64_t FspecScheduler::dynamic_next_frame(flexray::ChannelId channel,
                                                std::int64_t min_frame) const {
  // Channel B only replays what A staged.
  if (channel == flexray::ChannelId::kB) return mirror_next_frame(min_frame);
  return queued_dynamic_next_frame(min_frame);
}

void FspecScheduler::on_node_down(units::NodeId /*node*/,
                                  units::CycleIndex /*cycle*/,
                                  sim::Time /*at*/) {
  for (RoundState& st : round_state_) {
    if (st.staged != 0 && instances_.find(st.staged) == nullptr) {
      st.staged = 0;
    }
    if (st.current != 0 && instances_.find(st.current) == nullptr) {
      st.current = st.staged;
      st.staged = 0;
      st.rounds_done = 0;
    }
  }
}

void FspecScheduler::on_tx_complete(const flexray::TxOutcome& outcome) {
  SchedulerBase::on_tx_complete(outcome);
  if (outcome.segment != flexray::Segment::kStatic ||
      outcome.channel != flexray::ChannelId::kB) {
    return;
  }
  // A mirrored static pair completed: one round done for this message.
  Instance* inst = instances_.find(outcome.request.instance);
  if (inst == nullptr) return;
  RoundState& st = round_state_[InstanceStore::position_of(inst->key)];
  if (st.current != inst->key) return;
  if (++st.rounds_done >= options_.rounds) {
    st.current = st.staged;
    st.staged = 0;
    st.rounds_done = 0;
  }
}

}  // namespace coeff::core
