// Message-instance lifecycle tracking shared by both schedulers.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "net/message.hpp"
#include "sim/time.hpp"

namespace coeff::core {

/// One released instance (job) of a message and the transmissions the
/// active scheme still owes for it.
struct Instance {
  std::uint64_t key = 0;  ///< 0 while the store cell holds no instance
  int message_id = 0;
  net::MessageKind kind = net::MessageKind::kStatic;
  std::int64_t index = 0;  ///< k-th release of its message
  int node = 0;
  std::int64_t size_bits = 0;
  sim::Time release;
  sim::Time abs_deadline;
  /// Total wire transmissions owed (scheme-specific: primaries, planned
  /// retransmission copies, mirror rounds). May be reduced if copies are
  /// cancelled (no slack before the deadline / queue expiry).
  int copies_required = 1;
  int copies_sent = 0;
  bool delivered = false;       ///< an uncorrupted copy landed in time
  bool miss_recorded = false;   ///< deadline passed undelivered (counted)
  // --- NMR replica voting (0 = plain first-success acceptance) ---------
  /// Number of replicas in the vote; delivery requires a strict majority
  /// (vote_k / 2 + 1) of uncorrupted replicas instead of a single
  /// success.
  int vote_k = 0;
  int vote_ok = 0;              ///< uncorrupted replicas observed so far
  bool vote_settled = false;    ///< kVoteResolved emitted for this instance
};

/// The live instances, in flat arrays. A scheduler numbers its messages
/// by position (its statics first, then its dynamics — never by raw
/// message id, which a CSV may set to any int); each position owns a
/// ring of cells indexed by release index. A key packs (position + 1,
/// release index), so a key is never 0 — FSPEC's round train and the
/// free cells use 0 for "none" — and ascending keys mean ascending
/// (position, index).
class InstanceStore {
 public:
  InstanceStore() = default;
  /// A store for messages at positions [0, positions).
  explicit InstanceStore(std::size_t positions) : lanes_(positions) {}

  [[nodiscard]] static std::uint64_t make_key(std::size_t position,
                                              std::int64_t index) {
    return (static_cast<std::uint64_t>(position + 1) << 32) |
           static_cast<std::uint32_t>(index);
  }
  /// The message position `key` was made from.
  [[nodiscard]] static std::size_t position_of(std::uint64_t key) {
    return static_cast<std::size_t>((key >> 32) - 1);
  }

  /// The `index`-th release of the message at `position`. A position's
  /// indices must increase from one call to the next (they may skip).
  Instance& create(std::size_t position, int message_id, std::int64_t index) {
    Lane& lane = lanes_[position];
    if (lane.count == 0) {
      lane.head = 0;
      lane.base = index;
    } else if (index < lane.base + static_cast<std::int64_t>(lane.count)) {
      throw std::logic_error("InstanceStore: release index out of order");
    }
    const auto need = static_cast<std::size_t>(index - lane.base) + 1;
    if (need > lane.ring.size()) grow(lane, need);
    // Cells past the old end are free (skipped indices stay free).
    const std::size_t mask = lane.ring.size() - 1;
    for (std::size_t off = lane.count; off < need; ++off) {
      lane.ring[(lane.head + off) & mask] = Instance{};
    }
    lane.count = need;
    Instance& inst = lane.ring[(lane.head + need - 1) & mask];
    inst.key = make_key(position, index);
    inst.message_id = message_id;
    inst.index = index;
    ++live_;
    return inst;
  }

  /// The live instance `key` names, or nullptr.
  [[nodiscard]] Instance* find(std::uint64_t key) {
    const std::uint64_t lane_id = key >> 32;
    if (lane_id == 0 || lane_id > lanes_.size()) return nullptr;
    Lane& lane = lanes_[lane_id - 1];
    const std::int64_t off =
        static_cast<std::int64_t>(key & 0xFFFFFFFFULL) - lane.base;
    if (off < 0 || off >= static_cast<std::int64_t>(lane.count)) {
      return nullptr;
    }
    Instance& inst = lane.ring[(lane.head + static_cast<std::size_t>(off)) &
                               (lane.ring.size() - 1)];
    return inst.key == key ? &inst : nullptr;
  }

  [[nodiscard]] std::size_t size() const { return live_; }

  /// Visit every live instance in ascending key order and erase those
  /// for which `settle(instance)` returns true. `settle` must not create
  /// or erase instances itself.
  template <class Settle>
  void erase_if(Settle&& settle) {
    for (Lane& lane : lanes_) {
      const std::size_t mask = lane.ring.size() - 1;
      for (std::size_t off = 0; off < lane.count; ++off) {
        Instance& inst = lane.ring[(lane.head + off) & mask];
        if (inst.key != 0 && settle(inst)) {
          inst.key = 0;
          --live_;
        }
      }
      trim(lane);
    }
  }

 private:
  /// Cells for release indices [base, base + count), starting at ring
  /// cell `head`; the ring's size is 0 or a power of two.
  struct Lane {
    std::vector<Instance> ring;
    std::size_t head = 0;
    std::size_t count = 0;
    std::int64_t base = 0;
  };

  static void grow(Lane& lane, std::size_t need) {
    std::size_t size = lane.ring.empty() ? 4 : lane.ring.size();
    while (size < need) size *= 2;
    std::vector<Instance> ring(size);
    for (std::size_t off = 0; off < lane.count; ++off) {
      ring[off] = lane.ring[(lane.head + off) & (lane.ring.size() - 1)];
    }
    lane.ring = std::move(ring);
    lane.head = 0;
  }

  /// Drop the free cells at the front, so a lane spans its oldest live
  /// instance to its newest.
  static void trim(Lane& lane) {
    const std::size_t mask = lane.ring.size() - 1;
    while (lane.count > 0 && lane.ring[lane.head].key == 0) {
      lane.head = (lane.head + 1) & mask;
      ++lane.base;
      --lane.count;
    }
  }

  std::vector<Lane> lanes_;
  std::size_t live_ = 0;
};

}  // namespace coeff::core
