#include "flexray/chi.hpp"

#include <stdexcept>

namespace coeff::flexray {

void StaticBufferSet::add_slot(units::SlotId slot) {
  if (slot.value() < 0) {
    throw std::invalid_argument("StaticBufferSet::add_slot: negative slot");
  }
  const auto idx = static_cast<std::size_t>(slot.value());
  if (idx >= buffers_.size()) buffers_.resize(idx + 1);
  buffers_[idx].owned = true;
}

void StaticBufferSet::write(units::SlotId slot, PendingMessage msg) {
  Buffer* buf = owned(*this, slot);
  if (buf == nullptr) {
    throw std::invalid_argument("StaticBufferSet::write: slot not owned");
  }
  buf->message = std::move(msg);
}

std::optional<PendingMessage> StaticBufferSet::read(units::SlotId slot) const {
  const Buffer* buf = owned(*this, slot);
  return buf != nullptr ? buf->message : std::nullopt;
}

void StaticBufferSet::clear(units::SlotId slot) {
  if (Buffer* buf = owned(*this, slot)) buf->message.reset();
}

void StaticBufferSet::clear_all() {
  for (Buffer& buf : buffers_) buf.message.reset();
}

void DynamicQueue::push(PendingMessage msg) {
  // Insert before the first strictly-lower-urgency entry; equal
  // priorities stay FIFO.
  std::size_t pos = queue_.size();
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].priority > msg.priority) {
      pos = i;
      break;
    }
  }
  queue_.insert(queue_.begin() + static_cast<std::ptrdiff_t>(pos),
                std::move(msg));
  ++version_;
}

std::optional<PendingMessage> DynamicQueue::peek(FrameId id) const {
  for (const auto& msg : queue_) {
    if (msg.frame_id == id) return msg;
  }
  return std::nullopt;
}

bool DynamicQueue::pop(std::uint64_t instance) {
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].instance == instance) {
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      ++version_;
      return true;
    }
  }
  return false;
}

std::vector<PendingMessage> DynamicQueue::drop_expired(sim::Time now) {
  return drop_if(
      [now](const PendingMessage& m) { return m.deadline < now; });
}

std::vector<PendingMessage> DynamicQueue::drop_if(
    const std::function<bool(const PendingMessage&)>& pred) {
  std::vector<PendingMessage> dropped;
  for (std::size_t i = 0; i < queue_.size();) {
    if (pred(queue_[i])) {
      dropped.push_back(queue_[i]);
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  if (!dropped.empty()) ++version_;
  return dropped;
}

void DynamicQueue::clear() {
  if (queue_.empty()) return;
  queue_.clear();
  ++version_;
}

}  // namespace coeff::flexray
