#include "flexray/bus.hpp"

namespace coeff::flexray {

TxOutcome Channel::transmit(const TxRequest& req, sim::Time start,
                            sim::Time duration, units::CycleIndex cycle,
                            units::SlotId slot, Segment segment,
                            bool force_corrupt) {
  // The hook runs even when force_corrupt overrides it, so its
  // per-channel verdict stream advances (keeps the surviving channel's
  // stream independent of jamming on this one).
  const bool corrupted = corruption_ ? corruption_(req, id_, start) : false;
  TxOutcome out;
  out.request = req;
  out.channel = id_;
  out.start = start;
  out.end = start + duration;
  out.cycle = cycle;
  out.slot = slot;
  out.segment = segment;
  out.corrupted = corrupted || force_corrupt;

  ++stats_.frames;
  if (out.corrupted) ++stats_.corrupted_frames;
  if (req.retransmission) ++stats_.retransmission_frames;
  stats_.payload_bits += req.payload_bits;
  if (segment == Segment::kStatic) {
    stats_.busy_static += duration;
  } else {
    stats_.busy_dynamic += duration;
  }
  return out;
}

TxOutcome Channel::lose(const TxRequest& req, sim::Time start,
                        sim::Time duration, units::CycleIndex cycle,
                        units::SlotId slot, Segment segment) const {
  TxOutcome out;
  out.request = req;
  out.channel = id_;
  out.start = start;
  out.end = start + duration;
  out.cycle = cycle;
  out.slot = slot;
  out.segment = segment;
  out.corrupted = true;
  out.lost = true;
  return out;
}

}  // namespace coeff::flexray
