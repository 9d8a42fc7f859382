// Controller-Host Interface (CHI) buffers.
//
// Each node's host deposits outgoing messages in the CHI; the
// communication controller consumes them when the owning slot comes
// around. Static messages live in per-slot single buffers (a newer write
// overwrites — FlexRay static buffers hold the latest value); dynamic
// messages queue in a fixed-priority queue drained in (priority, FIFO)
// order, as §II-B of the paper describes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "flexray/config.hpp"
#include "sim/time.hpp"
#include "units/units.hpp"

namespace coeff::flexray {

/// A message instance waiting in a CHI buffer.
struct PendingMessage {
  std::uint64_t instance = 0;  ///< scheduler-opaque instance id
  FrameId frame_id{0};
  std::int64_t payload_bits = 0;
  sim::Time release;                   ///< when the host produced it
  sim::Time deadline = sim::Time::max();  ///< absolute; max() = soft
  int priority = 0;                    ///< lower value = more urgent
};

/// Single-message buffers, one per static slot owned by the node.
class StaticBufferSet {
 public:
  /// Declare ownership of `slot` (>= 0). Writing to an undeclared slot
  /// throws.
  void add_slot(units::SlotId slot);

  /// Host side: deposit (or overwrite) the message for `slot`. A
  /// previous, never-transmitted message is lost; read() it first to
  /// account for it.
  void write(units::SlotId slot, PendingMessage msg);

  /// Controller side: peek the message for `slot`, if any.
  [[nodiscard]] std::optional<PendingMessage> read(units::SlotId slot) const;

  /// Controller side: consume the message for `slot` after transmission.
  void clear(units::SlotId slot);

  /// Drop every buffered message (host power-off); slot ownership is
  /// retained.
  void clear_all();

 private:
  struct Buffer {
    bool owned = false;
    std::optional<PendingMessage> message;
  };
  /// The buffer of `slot` in `self`, or nullptr when the node does not
  /// own it.
  template <class Self>
  static auto owned(Self& self, units::SlotId slot)
      -> decltype(&self.buffers_[0]) {
    const auto idx = static_cast<std::size_t>(slot.value());
    return slot.value() >= 0 && idx < self.buffers_.size() &&
                   self.buffers_[idx].owned
               ? &self.buffers_[idx]
               : nullptr;
  }

  std::vector<Buffer> buffers_;  ///< indexed by slot id
};

/// Fixed-priority queue for dynamic-segment messages.
///
/// Order: ascending priority, FIFO within a priority (stable). Per
/// FlexRay, two messages can share a dynamic frame ID; the head of the
/// queue for that ID is sent in the current cycle (§II-B).
class DynamicQueue {
 public:
  void push(PendingMessage msg);

  /// Head message with the given frame id, if any (does not remove).
  [[nodiscard]] std::optional<PendingMessage> peek(FrameId id) const;

  /// Remove the specific instance (after a successful transmission).
  /// Returns false if it is no longer queued.
  bool pop(std::uint64_t instance);

  /// Drop all messages whose deadline is earlier than `now`; returns the
  /// dropped instances (reported as deadline misses upstream).
  std::vector<PendingMessage> drop_expired(sim::Time now);

  /// Drop all messages matching `pred`; returns the dropped instances.
  std::vector<PendingMessage> drop_if(
      const std::function<bool(const PendingMessage&)>& pred);

  /// Drop every message (host power-off).
  void clear();

  [[nodiscard]] std::size_t size() const { return queue_.size(); }
  [[nodiscard]] bool empty() const { return queue_.empty(); }

  /// Queued messages in dispatch order (for inspection/tests).
  [[nodiscard]] const std::deque<PendingMessage>& contents() const {
    return queue_;
  }

  /// Monotonic mutation counter: bumped whenever the queued contents
  /// change. Lets scan results over contents() be memoized exactly (the
  /// batched static decide's slack peek) — equal versions guarantee equal
  /// contents.
  [[nodiscard]] std::uint64_t version() const { return version_; }

 private:
  // Kept sorted by (priority, arrival order). A deque keeps push/pop
  // cheap at the sizes this project uses (tens of messages per node).
  std::deque<PendingMessage> queue_;
  std::uint64_t version_ = 0;
};

/// One ECU node's CHI buffers.
class Node {
 public:
  StaticBufferSet& static_buffers() { return static_buffers_; }
  [[nodiscard]] const StaticBufferSet& static_buffers() const {
    return static_buffers_;
  }
  DynamicQueue& dynamic_queue() { return dynamic_queue_; }
  [[nodiscard]] const DynamicQueue& dynamic_queue() const {
    return dynamic_queue_;
  }

  /// Power the host off (structural fault domain): a crashed ECU loses
  /// its volatile CHI contents and rejoins with empty buffers.
  void shutdown() {
    static_buffers_.clear_all();
    dynamic_queue_.clear();
  }

 private:
  StaticBufferSet static_buffers_;
  DynamicQueue dynamic_queue_;
};

}  // namespace coeff::flexray
