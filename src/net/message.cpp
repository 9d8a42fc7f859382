#include "net/message.hpp"

#include <numeric>
#include <set>
#include <stdexcept>

namespace coeff::net {

namespace {
[[noreturn]] void reject(const std::string& what) {
  throw std::invalid_argument("MessageSet: " + what);
}

/// The first per-message rule `m` breaks, in check order, or nullptr.
/// Kept as static text so a valid set builds no error strings.
const char* field_violation(const Message& m) {
  // Negative ids are reserved: -1 is an absent tag in a trace record,
  // whose tags carry message ids.
  if (m.id < 0) return "negative id";
  if (m.period <= sim::Time::zero()) return "period must be positive";
  if (m.size_bits <= 0) return "size must be positive";
  if (m.deadline <= sim::Time::zero()) return "deadline must be positive";
  if (m.deadline > m.period) {
    return "deadline exceeds period (constrained-deadline model)";
  }
  if (m.offset < sim::Time::zero()) return "negative offset";
  if (m.offset > m.period) return "offset exceeds period";
  if (m.node < 0) return "negative node";
  // FlexRay frame ids are 11 bits (units::to_frame_id's bound).
  if (m.frame_id < 0 || m.frame_id > 2047) {
    return "frame id outside [0, 2047]";
  }
  return nullptr;
}
}  // namespace

MessageSet::MessageSet(std::vector<Message> messages)
    : msgs_(std::move(messages)) {}

void MessageSet::add(Message m) { msgs_.push_back(std::move(m)); }

MessageSet MessageSet::of_kind(MessageKind kind) const {
  MessageSet out;
  for (const auto& m : msgs_) {
    if (m.kind == kind) out.add(m);
  }
  return out;
}

MessageSet MessageSet::prefix(std::size_t n) const {
  MessageSet out;
  for (std::size_t i = 0; i < std::min(n, msgs_.size()); ++i) {
    out.add(msgs_[i]);
  }
  return out;
}

MessageSet MessageSet::merged_with(const MessageSet& other) const {
  MessageSet out = *this;
  for (const auto& m : other.messages()) out.add(m);
  return out;
}

sim::Time MessageSet::hyperperiod() const {
  std::int64_t lcm_ns = 1;
  for (const auto& m : msgs_) {
    lcm_ns = std::lcm(lcm_ns, m.period.ns());
    if (lcm_ns > sim::seconds(3600).ns()) {
      throw std::domain_error("MessageSet::hyperperiod exceeds one hour");
    }
  }
  return sim::nanos(lcm_ns);
}

void MessageSet::validate() const {
  std::set<int> ids;
  std::set<int> static_frame_ids;
  for (const auto& m : msgs_) {
    if (!ids.insert(m.id).second) {
      reject("duplicate message id " + std::to_string(m.id));
    }
    if (const char* what = field_violation(m)) {
      reject("message " + std::to_string(m.id) + ": " + what);
    }
    if (m.kind == MessageKind::kStatic && m.frame_id != 0 &&
        !static_frame_ids.insert(m.frame_id).second) {
      reject("message " + std::to_string(m.id) + ": static frame id " +
             std::to_string(m.frame_id) + " already taken");
    }
  }
}

const Message* MessageSet::find(int id) const {
  for (const auto& m : msgs_) {
    if (m.id == id) return &m;
  }
  return nullptr;
}

}  // namespace coeff::net
