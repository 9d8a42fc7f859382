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
#include <string>
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
  bool retransmission = false;
};

/// Single-message buffers, one per static slot owned by the node.
class StaticBufferSet {
 public:
  /// Declare ownership of `slot` (>= 0). Writing to an undeclared slot
  /// throws.
  void add_slot(units::SlotId slot);

  [[nodiscard]] bool owns(units::SlotId slot) const;

  /// Host side: deposit (or overwrite) the message for `slot`. Returns
  /// true if a previous, never-transmitted message was overwritten.
  bool write(units::SlotId slot, PendingMessage msg);

  /// Controller side: peek the message for `slot`, if any.
  [[nodiscard]] std::optional<PendingMessage> read(units::SlotId slot) const;

  /// Controller side: consume the message for `slot` after transmission.
  void clear(units::SlotId slot);

  /// Drop every buffered message (host power-off); slot ownership is
  /// retained. Returns the dropped messages for upstream accounting.
  std::vector<PendingMessage> clear_all();

  [[nodiscard]] std::vector<units::SlotId> owned_slots() const;
  [[nodiscard]] std::size_t pending_count() const;

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

  /// Highest-priority message overall, if any.
  [[nodiscard]] std::optional<PendingMessage> peek_head() const;

  /// Remove the specific instance (after a successful transmission).
  /// Returns false if it is no longer queued.
  bool pop(std::uint64_t instance);

  /// Drop all messages whose deadline is earlier than `now`; returns the
  /// dropped instances (reported as deadline misses upstream).
  std::vector<PendingMessage> drop_expired(sim::Time now);

  /// Drop all messages matching `pred`; returns the dropped instances.
  std::vector<PendingMessage> drop_if(
      const std::function<bool(const PendingMessage&)>& pred);

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

/// One ECU node: identity, slot/frame-ID ownership, and its CHI buffers.
class Node {
 public:
  Node(units::NodeId id, std::string name)
      : id_(id), name_(std::move(name)) {}

  [[nodiscard]] units::NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  StaticBufferSet& static_buffers() { return static_buffers_; }
  [[nodiscard]] const StaticBufferSet& static_buffers() const {
    return static_buffers_;
  }
  DynamicQueue& dynamic_queue() { return dynamic_queue_; }
  [[nodiscard]] const DynamicQueue& dynamic_queue() const {
    return dynamic_queue_;
  }

  /// Dynamic frame IDs this node may transmit in.
  void add_dynamic_frame_id(FrameId id) { dynamic_ids_.push_back(id); }
  [[nodiscard]] const std::vector<FrameId>& dynamic_frame_ids() const {
    return dynamic_ids_;
  }

  // --- Lifecycle (structural fault domain) -------------------------------
  // A crashed ECU stops producing and loses its volatile CHI contents;
  // on restart it rejoins with empty buffers at a cycle boundary.

  [[nodiscard]] bool is_up() const { return up_; }

  /// Power the host off: drop all buffered messages (returned for
  /// upstream accounting) and refuse writes until restart().
  std::vector<PendingMessage> shutdown();

  /// Power the host back on with empty buffers.
  void restart() { up_ = true; }

 private:
  units::NodeId id_;
  std::string name_;
  StaticBufferSet static_buffers_;
  DynamicQueue dynamic_queue_;
  std::vector<FrameId> dynamic_ids_;
  bool up_ = true;
};

}  // namespace coeff::flexray
