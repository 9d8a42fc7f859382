#include "core/coefficient.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace coeff::core {

CoEfficientScheduler::CoEfficientScheduler(const flexray::ClusterConfig& cfg,
                                           net::MessageSet statics,
                                           net::MessageSet dynamics,
                                           sim::Time batch_window,
                                           const CoEfficientOptions& options)
    : SchedulerBase(cfg, std::move(statics), std::move(dynamics),
                    batch_window),
      options_(options),
      copies_by_position_(statics_.size(), 0) {
  static_capacity_bits_ = cfg_.static_slot_capacity_bits();
  if (options_.vote_replicas != 0 &&
      (options_.vote_replicas < 3 || options_.vote_replicas % 2 == 0)) {
    throw std::invalid_argument(
        "CoEfficientScheduler: vote_replicas must be odd and >= 3");
  }
  member_dead_.assign(static_cast<std::size_t>(cfg_.num_nodes), 0);
  if (options_.silent_node_detection) {
    detector_ = std::make_unique<fault::SilentNodeDetector>(
        cfg_.num_nodes, options_.silent_cycle_threshold);
  }
  if (options_.rho > 0.0) {
    rebuild_plan(options_.ber);
    if (options_.enable_monitor) {
      monitor_ = std::make_unique<fault::ReliabilityMonitor>(
          options_.ber, options_.monitor);
    }
  }
  if (options_.mode_policy.enabled) {
    mode_mgr_ = std::make_unique<sched::ModeManager>(options_.mode_policy);
    for (const auto& m : statics_.messages()) {
      if (m.criticality != net::Criticality::kLow) {
        any_criticality_assigned_ = true;
      }
    }
    for (const auto& m : dynamics_.messages()) {
      if (m.criticality != net::Criticality::kLow) {
        any_criticality_assigned_ = true;
      }
    }
  }
  if (options_.power) {
    energy_ = std::make_unique<flexray::EnergyMeter>(
        static_cast<int>(cfg_.num_nodes),
        static_cast<double>(cfg_.bus_bit_rate));
  }
}

void CoEfficientScheduler::rebuild_plan(double ber) {
  fault::SolverOptions solver;
  solver.ber = ber;
  solver.rho = options_.rho;
  solver.u = options_.u;
  solver.max_copies_per_message = options_.max_copies_per_message;
  // Dead members produce nothing: solving over their messages would
  // spend the copy budget on traffic that cannot exist. Their messages
  // keep k_z = 0.
  const bool membership_reduced =
      std::any_of(member_dead_.begin(), member_dead_.end(),
                  [](char dead) { return dead != 0; });
  net::MessageSet alive;
  if (membership_reduced) {
    for (const auto& m : statics_.messages()) {
      if (member_dead_[static_cast<std::size_t>(m.node)] == 0) alive.add(m);
    }
  }
  const net::MessageSet& set = membership_reduced ? alive : statics_;
  plan_ = options_.use_uniform_plan ? fault::solve_uniform(set, solver)
                                    : fault::solve_differentiated(set, solver);
  // `set` is statics_ without the dead members' messages, in order.
  std::size_t solved = 0;
  for (std::size_t z = 0; z < statics_.size(); ++z) {
    const auto node = static_cast<std::size_t>(statics_.messages()[z].node);
    copies_by_position_[z] =
        member_dead_[node] == 0 ? plan_.copies[solved++] : 0;
  }
  stats_.plan_degraded = plan_.degraded;
  stats_.plan_target_log_r = plan_.target_log_reliability;
  stats_.plan_achieved_log_r = plan_.log_reliability;
}

void CoEfficientScheduler::on_static_release(Instance& inst,
                                             const net::Message& m) {
  add_copies(inst, 1);  // the primary
  const sched::SlotAssignment* a = placement_of(m);
  if (a != nullptr) {
    auto& buffers =
        nodes_.at(static_cast<std::size_t>(m.node)).static_buffers();
    // An unsent previous value would be silently overwritten (FlexRay
    // static buffers hold the latest value); release its owed copy.
    if (auto old = buffers.read(a->slot); old.has_value()) {
      if (Instance* prev = instances_.find(old->instance)) {
        cancel_copies(*prev, 1);
      }
    }
    flexray::PendingMessage pending;
    pending.instance = inst.key;
    pending.frame_id = units::to_frame_id(a->slot);
    pending.payload_bits = m.size_bits;
    pending.release = inst.release;
    pending.deadline = inst.abs_deadline;
    buffers.write(a->slot, pending);
  } else {
    // Unplaced message: the primary cannot be staged; it will be counted
    // as a miss at its deadline.
    cancel_copies(inst, 1);
  }

  // The active plan's k_z, placed or not: a plan swap reaches the
  // releases staged at the next cycle start.
  int kz = copies_by_position_[static_position(m)];
  if (options_.vote_replicas > 0) {
    // NMR voting: the instance needs vote_replicas replicas on the wire
    // (primary included); the extra copies ride the same slack-stealing
    // machinery as BER retransmission copies, so the larger of the two
    // budgets is staged.
    inst.vote_k = options_.vote_replicas;
    kz = std::max(kz, options_.vote_replicas - 1);
  }
  if (kz <= 0) return;

  stats_.retransmission_copies_planned += kz;
  add_copies(inst, kz);
  if (trace_ != nullptr) {
    // a=message, b=node, c=staged copies: the budget the trace linter
    // charges retransmission transmissions against.
    trace_->emit(inst.release, sim::TraceKind::kRetransmissionScheduled, m.id,
                 m.node, kz);
  }
  RetxJob job;
  job.instance = inst.key;
  job.node = m.node;
  job.bits = m.size_bits;
  job.release = inst.release;
  job.deadline = inst.abs_deadline;
  job.home_slot = a != nullptr ? a->slot : units::SlotId{0};
  job.copies = kz;
  // Keep the queue EDF-ordered, FIFO among equal deadlines.
  auto pos = std::upper_bound(
      retx_jobs_.begin(), retx_jobs_.end(), job,
      [](const RetxJob& a, const RetxJob& b) { return a.deadline < b.deadline; });
  retx_jobs_.insert(pos, job);
}

void CoEfficientScheduler::on_dynamic_release(
    Instance& inst, const net::Message& m,
    const flexray::PendingMessage& pending) {
  if (plan_.degraded) {
    // Graceful degradation: soft load is shed at release so every idle
    // slot (and the kSoftShare reservation) stays available to hard
    // retransmission copies. The instance settles as a miss.
    ++stats_.dynamic_frames_shed;
    if (trace_ != nullptr) {
      trace_->emit(inst.release, sim::TraceKind::kLoadShed, m.id, m.node);
    }
    return;
  }
  // Mixed-criticality admission: a degraded mode sheds dynamic releases
  // below its criticality floor at release time (queues stay untouched,
  // so the compiled fast path and the slack-peek cache are unaffected).
  // The shed message is remembered for match-up once NORMAL returns.
  if (mode_mgr_ != nullptr && mode_mgr_->degraded()) {
    const net::Criticality level =
        sched::effective_criticality(m, any_criticality_assigned_);
    if (level < sched::admission_floor(mode_mgr_->mode())) {
      ++stats_.mode_sheds;
      shed_backlog_[m.id] =
          ShedEntry{m.node, level, inst.release};  // keep-latest dedupe
      if (trace_ != nullptr) {
        trace_->emit(inst.release, sim::TraceKind::kShedByMode, m.id, m.node,
                     static_cast<std::int64_t>(mode_mgr_->mode()),
                     static_cast<std::int64_t>(level));
      }
      return;
    }
  }
  add_copies(inst, 1);
  nodes_.at(static_cast<std::size_t>(m.node)).dynamic_queue().push(pending);
}

void CoEfficientScheduler::on_cycle_start_hook(units::CycleIndex cycle,
                                               sim::Time at) {
  // Runtime reliability loop: roll the monitor window at the cycle
  // boundary; on drift, re-solve against the worst-channel estimate and
  // swap the plan (future releases pick up the new k_z).
  if (monitor_ != nullptr && monitor_->on_cycle_end()) {
    const double estimated = monitor_->worst_channel_estimate();
    if (trace_ != nullptr) {
      char note[64];
      std::snprintf(note, sizeof note, "ber_est=%g planned=%g", estimated,
                    monitor_->planned_ber());
      trace_->emit(at, sim::TraceKind::kBerDrift, cycle.value(), -1, -1, -1,
                   note);
    }
    rebuild_plan(estimated);
    monitor_->note_replanned(estimated);
    ++stats_.plan_swaps;
    if (trace_ != nullptr) {
      trace_->emit(at, sim::TraceKind::kPlanSwap, cycle.value(),
                   plan_.total_copies(),
                   plan_.degraded ? 1 : 0);
    }
  }

  // Mixed-criticality mode machine: one evaluation per cycle, at the
  // boundary, from decide-side inputs only (the monitor's drift ratio
  // and the dynamic queue backlog) — so the mode trajectory is
  // identical across engines and job counts.
  if (mode_mgr_ != nullptr) {
    const double ratio = monitor_ != nullptr ? monitor_->drift_ratio() : 1.0;
    bool overloaded = false;
    if (options_.mode_policy.overload_backlog > 0) {
      std::int64_t backlog = 0;
      for (const auto& node : nodes_) {
        backlog +=
            static_cast<std::int64_t>(node.dynamic_queue().contents().size());
      }
      overloaded = backlog > options_.mode_policy.overload_backlog;
    }
    const sched::ModeDecision decision = mode_mgr_->evaluate(ratio, overloaded);
    if (decision.changed) {
      ++stats_.mode_changes;
      if (trace_ != nullptr) {
        char note[48];
        std::snprintf(note, sizeof note, "ratio=%g", ratio);
        trace_->emit(at, sim::TraceKind::kModeChange,
                     static_cast<std::int64_t>(decision.from),
                     static_cast<std::int64_t>(decision.to), cycle.value(),
                     options_.mode_policy.recovery_cycles, note);
      }
    }
    // Match-up: once NORMAL has held for a full recovery window, re-admit
    // shed messages in id order, at most matchup_burst per cycle, as
    // fresh releases. Entries older than the match-up window carry stale
    // data and are abandoned instead.
    if (mode_mgr_->matchup_open() && !shed_backlog_.empty()) {
      const sim::Time window =
          cycle_duration_ * options_.mode_policy.matchup_window_cycles;
      int burst = options_.mode_policy.matchup_burst;
      for (auto it = shed_backlog_.begin();
           it != shed_backlog_.end() && burst > 0;) {
        if (it->second.shed_at + window < at) {
          ++stats_.matchup_abandoned;
          it = shed_backlog_.erase(it);
          continue;
        }
        const int id = it->first;
        const ShedEntry entry = it->second;
        it = shed_backlog_.erase(it);
        --burst;
        ++stats_.matchups;
        if (trace_ != nullptr) {
          trace_->emit(at, sim::TraceKind::kMatchUp, id, entry.node,
                       cycle.value(), static_cast<std::int64_t>(entry.level));
        }
        on_arrival(id, at);
      }
    }
  }

  // Silent-node detection: register who the schedule expects on the
  // wire this cycle. Skipped under a total blackout — silence proves
  // nothing when no channel can carry a frame.
  if (detector_ != nullptr && channels_available() > 0) {
    for (std::int64_t s = 1; s <= cfg_.g_number_of_static_slots; ++s) {
      const net::Message* m = tpl_.message_at(units::SlotId{s}, cycle);
      if (m != nullptr &&
          member_dead_[static_cast<std::size_t>(m->node)] == 0) {
        detector_->note_expected(units::NodeId{m->node});
      }
    }
  }

  // Copies whose deadline passed with no fitting slack are abandoned,
  // each one cancelled and counted. The queue is EDF-ordered, so they
  // are a prefix.
  const auto live = std::find_if(
      retx_jobs_.begin(), retx_jobs_.end(),
      [at](const RetxJob& job) { return job.deadline >= at; });
  for (auto it = retx_jobs_.begin(); it != live; ++it) {
    if (Instance* inst = instances_.find(it->instance)) {
      cancel_copies(*inst, it->copies);
    }
    stats_.retransmission_copies_dropped += it->copies;
  }
  retx_jobs_.erase(retx_jobs_.begin(), live);
}

std::vector<CoEfficientScheduler::RetxJob>::iterator
CoEfficientScheduler::find_retx(std::int64_t capacity_bits,
                                sim::Time slot_start, sim::Time slot_end,
                                units::SlotId slot,
                                flexray::ChannelId channel) {
  for (auto it = retx_jobs_.begin(); it != retx_jobs_.end(); ++it) {
    if (it->bits > capacity_bits) continue;  // selective: slack must fit
    if (it->release > slot_start) continue;  // not yet produced
    if (it->deadline < slot_end) continue;   // would land too late
    if (options_.disable_slack_stealing &&
        (slot != it->home_slot || channel != flexray::ChannelId::kB)) {
      continue;  // ablation: copies may only mirror their own slot
    }
    return it;  // the queue is EDF-ordered; first eligible is earliest
  }
  return retx_jobs_.end();
}

std::optional<flexray::PendingMessage>
CoEfficientScheduler::peek_dynamic_for_slack(std::int64_t capacity_bits,
                                             sim::Time slot_start) const {
  // Soft aperiodics are served from stolen slack in FIFO (oldest
  // release first) order, the classic slack-stealing service discipline
  // ([26], [27]). Only messages that have already waited at least one
  // full cycle qualify — they demonstrably missed a dynamic-segment
  // opportunity (FTDMA congestion or an out-of-range frame id); fresh
  // arrivals go through the dynamic segment.
  std::optional<flexray::PendingMessage> best;
  for (const auto& node : nodes_) {
    for (const auto& pending : node.dynamic_queue().contents()) {
      if (pending.payload_bits > capacity_bits) continue;
      if (pending.release + cycle_duration_ > slot_start) continue;
      if (!best || pending.release < best->release ||
          (pending.release == best->release &&
           pending.priority < best->priority)) {
        best = pending;
      }
    }
  }
  return best;
}

std::optional<flexray::PendingMessage>
CoEfficientScheduler::peek_dynamic_cached(std::int64_t capacity_bits,
                                          sim::Time slot_start) const {
  if (!slack_peek_valid_) {
    // Same iteration order and comparator as peek_dynamic_for_slack,
    // minus the waited-a-cycle filter (applied below at query time).
    slack_peek_best_.reset();
    for (const auto& node : nodes_) {
      for (const auto& pending : node.dynamic_queue().contents()) {
        if (pending.payload_bits > capacity_bits) continue;
        if (!slack_peek_best_ ||
            pending.release < slack_peek_best_->release ||
            (pending.release == slack_peek_best_->release &&
             pending.priority < slack_peek_best_->priority)) {
          slack_peek_best_ = pending;
        }
      }
    }
    slack_peek_valid_ = true;
  }
  if (!slack_peek_best_.has_value()) return std::nullopt;
  if (slack_peek_best_->release + cycle_duration_ > slot_start) {
    return std::nullopt;
  }
  return slack_peek_best_;
}

std::optional<flexray::TxRequest> CoEfficientScheduler::static_slot(
    flexray::ChannelId channel, units::CycleIndex cycle, units::SlotId slot) {
  return decide_static(channel, cycle, slot,
                       cfg_.static_slot_start(cycle, slot),
                       /*use_slack_cache=*/false);
}

void CoEfficientScheduler::decide_static_chunk(
    units::CycleIndex cycle, std::int64_t slot_begin, std::int64_t slot_end,
    flexray::TransmissionPolicy::StaticChunkSink& sink) {
  // Bulk fast path: when no retransmission copy is queued and no queued
  // dynamic message can become slack-eligible anywhere in the chunk,
  // the per-slot decision collapses — only occupied template cells can
  // stage a request (the primary), and every idle-wire decision's sole
  // side effect is one idle_slot_counter_ bump, which batches exactly.
  // Eligibility grows with slot_start, so checking the cached best at
  // the chunk's LAST slot bounds the whole chunk.
  const sim::Time slot_duration = cfg_.static_slot_duration();
  const sim::Time first_start =
      cfg_.static_slot_start(cycle, units::SlotId{slot_begin});
  // The dynamic queues change between chunks; inside one, only
  // decide_static's own pop does, and it drops the peek cache itself.
  std::uint64_t stamp = 0;
  for (const auto& node : nodes_) stamp += node.dynamic_queue().version();
  if (stamp != slack_peek_stamp_) {
    slack_peek_stamp_ = stamp;
    slack_peek_valid_ = false;
  }
  bool dyn_quiet = options_.disable_slack_stealing || plan_.degraded;
  if (!dyn_quiet) {
    const sim::Time last_start =
        first_start + slot_duration * (slot_end - slot_begin);
    dyn_quiet = !peek_dynamic_cached(static_capacity_bits_,
                                     last_start)
                     .has_value();
  }
  if (retx_jobs_.empty() && dyn_quiet) {
    const bool a_up = channel_available(flexray::ChannelId::kA);
    const bool b_up = channel_available(flexray::ChannelId::kB);
    std::int64_t idle_bumps = 0;
    sim::Time slot_start = first_start;
    for (std::int64_t s = slot_begin; s <= slot_end;
         ++s, slot_start = slot_start + slot_duration) {
      const units::SlotId slot{s};
      const net::Message* m = tpl_.message_at(slot, cycle);
      if (m != nullptr && node_alive(m->node)) {
        // Primary on the home channel A, failing over to B when A is
        // dark; the mirror wire of a live occupied slot is idle slack.
        const flexray::ChannelId primary_ch = a_up ? flexray::ChannelId::kA
                                                   : flexray::ChannelId::kB;
        if (a_up || b_up) {
          auto& buffers =
              nodes_.at(static_cast<std::size_t>(m->node)).static_buffers();
          const auto pending = buffers.read(slot);
          if (pending.has_value() && pending->release <= slot_start) {
            buffers.clear(slot);
            flexray::TxRequest req;
            req.instance = pending->instance;
            req.frame_id = units::to_frame_id(slot);
            req.sender = units::NodeId{m->node};
            req.payload_bits = pending->payload_bits;
            req.failover = primary_ch == flexray::ChannelId::kB;
            sink.stage(slot, primary_ch, req);
          }
        }
        if (a_up && b_up) ++idle_bumps;  // the B mirror
      } else {
        // Unoccupied (or dead-producer) cell: idle wire on every
        // available channel.
        if (a_up) ++idle_bumps;
        if (b_up) ++idle_bumps;
      }
    }
    idle_slot_counter_ += idle_bumps;
    return;
  }

  sim::Time slot_start = first_start;
  for (std::int64_t s = slot_begin; s <= slot_end;
       ++s, slot_start = slot_start + slot_duration) {
    for (const flexray::ChannelId channel :
         {flexray::ChannelId::kA, flexray::ChannelId::kB}) {
      if (auto req = decide_static(channel, cycle, units::SlotId{s},
                                   slot_start, /*use_slack_cache=*/true)) {
        sink.stage(units::SlotId{s}, channel, *req);
      }
    }
  }
}

std::optional<flexray::TxRequest> CoEfficientScheduler::decide_static(
    flexray::ChannelId channel, units::CycleIndex cycle, units::SlotId slot,
    sim::Time slot_start, bool use_slack_cache) {
  const sim::Time slot_end = slot_start + cfg_.static_slot_duration();

  if (const net::Message* m = tpl_.message_at(slot, cycle); m != nullptr) {
    if (node_alive(m->node)) {
      // Primary transmission from the owning node's CHI buffer. Its
      // home is channel A; when A is dark the primary fails over to the
      // same slot on channel B — the mirror wire slack stealing would
      // otherwise use.
      const bool home_up = channel_available(flexray::ChannelId::kA);
      const bool primary_here =
          (channel == flexray::ChannelId::kA && home_up) ||
          (channel == flexray::ChannelId::kB && !home_up &&
           channel_available(flexray::ChannelId::kB));
      if (primary_here) {
        auto& buffers =
            nodes_.at(static_cast<std::size_t>(m->node)).static_buffers();
        const auto pending = buffers.read(slot);
        if (!pending.has_value() || pending->release > slot_start) {
          return std::nullopt;
        }
        buffers.clear(slot);
        flexray::TxRequest req;
        req.instance = pending->instance;
        req.frame_id = units::to_frame_id(slot);
        req.sender = units::NodeId{m->node};
        req.payload_bits = pending->payload_bits;
        req.failover = channel == flexray::ChannelId::kB;
        return req;
      }
      if (channel == flexray::ChannelId::kA) {
        return std::nullopt;  // dark home wire: the occurrence is mute
      }
      // Channel B mirror of a live occupied slot: idle wire, fall
      // through to slack stealing.
    }
    // Dead producer: its reserved occurrences are free capacity on both
    // channels (membership re-planning turned them into stealable
    // slack).
  }

  if (!channel_available(channel)) {
    // Anything clocked into a dark wire is lost; hold hard copies and
    // soft overflow for live slack instead of burning them.
    return std::nullopt;
  }

  // Idle wire (channel B mirror of an occupied slot, or a fully idle
  // slot): selective slack stealing, earliest deadline first across the
  // hard retransmission copies and the soft dynamic overflow; a hard
  // copy wins a tie.
  const std::int64_t capacity = static_capacity_bits_;
  const auto retx_it = find_retx(capacity, slot_start, slot_end, slot, channel);
  // Degraded mode sheds soft traffic from the static segment entirely:
  // stolen slack is reserved for hard retransmission copies.
  const auto dyn =
      options_.disable_slack_stealing || plan_.degraded
          ? std::optional<flexray::PendingMessage>{}
          : (use_slack_cache ? peek_dynamic_cached(capacity, slot_start)
                             : peek_dynamic_for_slack(capacity, slot_start));
  ++idle_slot_counter_;
  // Hard copies normally win the stolen slot, with two exceptions that
  // keep soft response times low (§III-B: soft aperiodics are serviced
  // in slack at the highest priority):
  //  * laxity deference — a hard copy with at least a full cycle of
  //    laxity can use a later slot just as well;
  //  * a deferrable-server share — every kSoftShare-th idle slot is
  //    reserved for waiting soft traffic so sustained retransmission
  //    pressure cannot starve it.
  const bool retx_can_wait =
      retx_it != retx_jobs_.end() &&
      retx_it->deadline >= slot_end + cycle_duration_;
  const bool soft_reserved = idle_slot_counter_ % kSoftShare == 0;
  const bool retx_wins =
      retx_it != retx_jobs_.end() &&
      !(dyn.has_value() && (retx_can_wait || soft_reserved));
  if (retx_wins) {
    ++stats_.slack_slots_stolen;
    flexray::TxRequest req;
    req.instance = retx_it->instance;
    req.frame_id = units::to_frame_id(slot);
    req.sender = units::NodeId{retx_it->node};
    req.payload_bits = retx_it->bits;
    req.retransmission = true;
    if (--retx_it->copies == 0) retx_jobs_.erase(retx_it);
    return req;
  }
  if (dyn.has_value()) {
    const net::Message* m = dynamic_message_for_frame(dyn->frame_id.value());
    nodes_.at(static_cast<std::size_t>(m->node))
        .dynamic_queue()
        .pop(dyn->instance);
    slack_peek_valid_ = false;
    ++stats_.slack_slots_stolen;
    ++stats_.dynamic_in_static_slots;
    flexray::TxRequest req;
    req.instance = dyn->instance;
    req.frame_id = units::to_frame_id(slot);
    req.sender = units::NodeId{m->node};
    req.payload_bits = dyn->payload_bits;
    return req;
  }
  return std::nullopt;
}

std::optional<flexray::TxRequest> CoEfficientScheduler::dynamic_slot(
    flexray::ChannelId channel, units::CycleIndex cycle,
    units::SlotId slot_counter, units::MinislotId minislot,
    std::int64_t minislots_remaining) {
  if (options_.single_channel_dynamics &&
      channel == flexray::ChannelId::kB) {
    return std::nullopt;  // ablation: channel B carries no dynamic frames
  }
  if (!channel_available(channel)) {
    return std::nullopt;  // dark wire: keep the queue for live capacity
  }
  return take_dynamic(cycle, slot_counter, minislot, minislots_remaining);
}

std::int64_t CoEfficientScheduler::dynamic_next_frame(
    flexray::ChannelId channel, std::int64_t min_frame) const {
  // Mirror of dynamic_slot's early-outs: a channel that answers nullopt
  // unconditionally is idle for the rest of the segment.
  if (options_.single_channel_dynamics &&
      channel == flexray::ChannelId::kB) {
    return flexray::kNoDynamicFrame;
  }
  if (!channel_available(channel)) return flexray::kNoDynamicFrame;
  return queued_dynamic_next_frame(min_frame);
}

void CoEfficientScheduler::on_tx_complete(const flexray::TxOutcome& outcome) {
  SchedulerBase::on_tx_complete(outcome);
  // Energy: the driver paid for every bit it clocked out — corrupted
  // and dark-channel copies included. Outcome-side accumulator, read
  // only at the cycle boundary (compiled-walk contract).
  cycle_tx_bits_ += outcome.request.payload_bits;
  if (outcome.lost) {
    // Dark-channel loss: no receiver saw the frame, so neither the BER
    // monitor (no verdict exists) nor the silent-node detector (no
    // observable activity) may learn from it.
    return;
  }
  if (monitor_ != nullptr) {
    monitor_->record_tx(outcome.channel, outcome.request.payload_bits,
                        outcome.corrupted);
  }
  if (detector_ != nullptr) {
    detector_->note_activity(outcome.request.sender);
  }
}

void CoEfficientScheduler::on_cycle_end(units::CycleIndex cycle, sim::Time at) {
  SchedulerBase::on_cycle_end(cycle, at);
  if (energy_ != nullptr) {
    const std::int64_t idle_slots = idle_slot_counter_ - last_idle_counter_;
    // Transceivers may gate off through idle slack only when no queued
    // retransmission copy could claim it next cycle (decide-side state,
    // identical across engines).
    const bool may_sleep = retx_jobs_.empty();
    const int dvfs_level =
        mode_mgr_ != nullptr ? static_cast<int>(mode_mgr_->mode()) : 0;
    energy_->on_cycle(cycle_duration_, cycle_tx_bits_, idle_slots,
                      cfg_.static_slot_duration(), may_sleep, dvfs_level);
    stats_.energy_total_uj = energy_->total_uj();
    stats_.energy_sleep_saved_uj = energy_->sleep_saved_uj();
    stats_.energy_cycles = energy_->cycles();
    stats_.slots_slept = energy_->slots_slept();
  }
  last_idle_counter_ = idle_slot_counter_;
  cycle_tx_bits_ = 0;
  if (mode_mgr_ != nullptr) {
    stats_.mode_cycles_normal =
        mode_mgr_->cycles_in(sched::CriticalityMode::kNormal);
    stats_.mode_cycles_l1 =
        mode_mgr_->cycles_in(sched::CriticalityMode::kDegradedL1);
    stats_.mode_cycles_l2 =
        mode_mgr_->cycles_in(sched::CriticalityMode::kDegradedL2);
    stats_.final_mode = static_cast<int>(mode_mgr_->mode());
  }
  if (detector_ == nullptr) return;
  for (const units::NodeId node : detector_->on_cycle_end()) {
    ++stats_.silent_node_detections;
    member_dead_[static_cast<std::size_t>(node.value())] = 1;
    replan_membership(cycle, at);
  }
}

void CoEfficientScheduler::replan_membership(units::CycleIndex cycle,
                                             sim::Time at) {
  ++stats_.membership_replans;
  if (options_.rho <= 0.0) return;  // no retransmission plan to rebuild
  const double ber =
      monitor_ != nullptr ? monitor_->planned_ber() : options_.ber;
  rebuild_plan(ber);
  if (trace_ != nullptr) {
    trace_->emit(at, sim::TraceKind::kPlanSwap, cycle.value(),
                 plan_.total_copies(), plan_.degraded ? 1 : 0);
  }
}

void CoEfficientScheduler::on_node_down(units::NodeId node,
                                        units::CycleIndex cycle, sim::Time at) {
  // The crash settled the node's instances as source-lost and erased
  // them; drop the dangling retransmission copies still queued for
  // slack (their owed counts were already cancelled), counting each.
  std::erase_if(retx_jobs_, [this](const RetxJob& job) {
    if (instances_.find(job.instance) != nullptr) return false;
    stats_.retransmission_copies_dropped += job.copies;
    return true;
  });
  if (detector_ == nullptr) {
    // Immediate membership change; with detection enabled the change is
    // instead inferred from wire silence (on_cycle_end).
    member_dead_[static_cast<std::size_t>(node.value())] = 1;
    replan_membership(cycle, at);
  }
}

void CoEfficientScheduler::on_node_up(units::NodeId node,
                                      units::CycleIndex cycle, sim::Time at) {
  char& dead = member_dead_[static_cast<std::size_t>(node.value())];
  if (dead != 0) {
    dead = 0;
    replan_membership(cycle, at);  // reintegration at the cycle boundary
  }
}

}  // namespace coeff::core
