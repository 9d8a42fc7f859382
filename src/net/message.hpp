// Message model: the unit the schedulers reason about.
//
// A message is a (possibly packed) frame payload produced by one ECU
// with a period, an offset, a relative deadline and a size in bits —
// exactly the four signal attributes of §II-A, lifted to frame level.
// Static messages occupy a reserved static slot (frame_id = slot
// number); dynamic messages contend for the dynamic segment under
// FTDMA priority = frame id.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace coeff::net {

enum class MessageKind : std::uint8_t { kStatic, kDynamic };

[[nodiscard]] constexpr const char* to_string(MessageKind k) {
  return k == MessageKind::kStatic ? "static" : "dynamic";
}

/// ASIL-style message criticality (three levels). The mode-change
/// protocol sheds kLow dynamics in DEGRADED-L1 and everything below
/// kHigh in DEGRADED-L2; static traffic defaults to kHigh and dynamic
/// traffic to kLow, which reproduces the pre-criticality behaviour of
/// the binary degraded flag when no explicit levels are assigned.
enum class Criticality : std::uint8_t { kLow = 0, kMedium = 1, kHigh = 2 };

[[nodiscard]] constexpr const char* to_string(Criticality c) {
  return c == Criticality::kLow      ? "low"
         : c == Criticality::kMedium ? "medium"
                                     : "high";
}

struct Message {
  int id = 0;          ///< unique within its MessageSet
  std::string name;
  int node = 0;        ///< producing ECU index
  MessageKind kind = MessageKind::kStatic;
  sim::Time period;    ///< production period (P in §II-A)
  sim::Time offset;    ///< first release (O)
  sim::Time deadline;  ///< relative deadline (D)
  std::int64_t size_bits = 0;  ///< payload length (W), bits
  /// Assigned frame ID: static slot number, or dynamic frame id
  /// (doubles as FTDMA priority — lower is more urgent). 0 = unassigned.
  int frame_id = 0;
  /// ASIL-style level the mode-change protocol sheds/admits by. The
  /// schedulers apply the kind-dependent default (static → kHigh,
  /// dynamic → kLow) when a workload leaves every message at kLow and
  /// a criticality spec does not override it.
  Criticality criticality = Criticality::kLow;
};

class MessageSet {
 public:
  MessageSet() = default;
  explicit MessageSet(std::vector<Message> messages);

  void add(Message m);

  [[nodiscard]] const std::vector<Message>& messages() const { return msgs_; }
  [[nodiscard]] std::size_t size() const { return msgs_.size(); }
  [[nodiscard]] bool empty() const { return msgs_.empty(); }
  [[nodiscard]] const Message& operator[](std::size_t i) const {
    return msgs_.at(i);
  }

  /// Subset of one kind, preserving order.
  [[nodiscard]] MessageSet of_kind(MessageKind kind) const;

  /// First `n` messages (used for the running-time sweeps).
  [[nodiscard]] MessageSet prefix(std::size_t n) const;

  /// Concatenate two sets; message ids must stay unique.
  [[nodiscard]] MessageSet merged_with(const MessageSet& other) const;

  /// Hyperperiod (LCM of periods). Throws if it exceeds ~1 hour, which
  /// signals a misconfigured set rather than a schedulable one.
  [[nodiscard]] sim::Time hyperperiod() const;

  /// Throws std::invalid_argument on: duplicate ids, non-positive
  /// period/size, deadline > period (constrained-deadline model),
  /// negative offset, offset > period, a frame id outside FlexRay's
  /// 11-bit space, duplicate static frame ids.
  void validate() const;

  [[nodiscard]] const Message* find(int id) const;

 private:
  std::vector<Message> msgs_;
};

}  // namespace coeff::net
