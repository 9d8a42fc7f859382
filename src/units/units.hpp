// Compile-time units & identifier safety layer (DESIGN.md §10).
//
// The reproduction juggles several incompatible scalar domains —
// microsecond durations, macrotick counts, cycle indices, slot/minislot
// numbers, frame and node identifiers — that were historically all
// spelled `std::int64_t`/`int`/`std::uint16_t`. The paper's
// correctness hinges on exact grid arithmetic (Theorem 1's per-u
// exponents, slack curves on the macrotick grid, FTDMA minislot
// accounting), so mixing those domains is always a bug. This header
// gives each domain a zero-overhead strong type with only the
// arithmetic that is dimensionally meaningful; every cross-domain
// conversion is an explicit named function (units/convert.hpp).
//
// Quantities (additive, scalable):
//   Microseconds  wall-clock duration counted in us
//   Macroticks    duration counted in macroticks (the FlexRay grid)
// Ordinals (ordered, step/difference only):
//   CycleIndex    communication-cycle number (0-based)
//   SlotId        static slot / dynamic slot counter (1-based)
//   MinislotId    minislot number within the dynamic segment (0-based)
// Identifiers (ordered, hashable, no arithmetic):
//   FrameId       11-bit FlexRay frame identifier
//   NodeId        ECU node index
//
// Additive/multiplicative operations are overflow-checked: a sum of
// hyperperiod-scale Macroticks that would wrap std::int64_t throws
// std::overflow_error instead of silently wrapping.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <type_traits>

namespace coeff::units {

[[noreturn]] inline void overflow_trap(const char* what) {
  throw std::overflow_error(what);
}

namespace detail {

[[nodiscard]] constexpr std::int64_t checked_add(std::int64_t a,
                                                 std::int64_t b,
                                                 const char* what) {
  std::int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) overflow_trap(what);
  return r;
}

[[nodiscard]] constexpr std::int64_t checked_sub(std::int64_t a,
                                                 std::int64_t b,
                                                 const char* what) {
  std::int64_t r = 0;
  if (__builtin_sub_overflow(a, b, &r)) overflow_trap(what);
  return r;
}

[[nodiscard]] constexpr std::int64_t checked_mul(std::int64_t a,
                                                 std::int64_t b,
                                                 const char* what) {
  std::int64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) overflow_trap(what);
  return r;
}

}  // namespace detail

/// A duration-like quantity counted in one fixed unit. Closed under
/// addition/subtraction and integer scaling; division by a quantity of
/// the same unit yields a dimensionless count. No implicit conversion
/// to or from the raw representation and no cross-unit arithmetic.
template <class Tag>
class Quantity {
 public:
  using rep = std::int64_t;

  constexpr Quantity() = default;
  constexpr explicit Quantity(rep count) : count_(count) {}

  [[nodiscard]] constexpr rep count() const { return count_; }

  constexpr auto operator<=>(const Quantity&) const = default;

  constexpr Quantity& operator+=(Quantity rhs) {
    count_ = detail::checked_add(count_, rhs.count_, "Quantity +");
    return *this;
  }
  constexpr Quantity& operator-=(Quantity rhs) {
    count_ = detail::checked_sub(count_, rhs.count_, "Quantity -");
    return *this;
  }

  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity{detail::checked_add(a.count_, b.count_, "Quantity +")};
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity{detail::checked_sub(a.count_, b.count_, "Quantity -")};
  }
  friend constexpr Quantity operator-(Quantity a) {
    return Quantity{detail::checked_sub(0, a.count_, "Quantity negate")};
  }
  friend constexpr Quantity operator*(Quantity a, std::int64_t k) {
    return Quantity{detail::checked_mul(a.count_, k, "Quantity *")};
  }
  friend constexpr Quantity operator*(std::int64_t k, Quantity a) {
    return a * k;
  }
  /// Truncating split into `k` parts (grid arithmetic keeps exactness
  /// obligations at the call site).
  friend constexpr Quantity operator/(Quantity a, std::int64_t k) {
    return Quantity{a.count_ / k};
  }
  /// Dimensionless: how many whole `b` fit in `a`.
  friend constexpr std::int64_t operator/(Quantity a, Quantity b) {
    return a.count_ / b.count_;
  }
  /// Remainder of `a` modulo the span `b`; same unit as the operands.
  friend constexpr Quantity operator%(Quantity a, Quantity b) {
    return Quantity{a.count_ % b.count_};
  }

  [[nodiscard]] static constexpr Quantity zero() { return Quantity{0}; }

 private:
  rep count_ = 0;
};

/// An ordered position in a discrete sequence (cycle number, slot
/// number, minislot number). Supports stepping by a dimensionless count
/// and taking differences, but not scaling or cross-ordinal mixing.
template <class Tag>
class Ordinal {
 public:
  using rep = std::int64_t;

  constexpr Ordinal() = default;
  constexpr explicit Ordinal(rep value) : value_(value) {}

  [[nodiscard]] constexpr rep value() const { return value_; }

  constexpr auto operator<=>(const Ordinal&) const = default;

  constexpr Ordinal& operator++() {
    value_ = detail::checked_add(value_, 1, "Ordinal ++");
    return *this;
  }

  friend constexpr Ordinal operator+(Ordinal a, std::int64_t steps) {
    return Ordinal{detail::checked_add(a.value_, steps, "Ordinal +")};
  }
  friend constexpr Ordinal operator-(Ordinal a, std::int64_t steps) {
    return Ordinal{detail::checked_sub(a.value_, steps, "Ordinal -")};
  }
  /// Signed distance between two positions, in steps.
  friend constexpr std::int64_t operator-(Ordinal a, Ordinal b) {
    return detail::checked_sub(a.value_, b.value_, "Ordinal diff");
  }

 private:
  rep value_ = 0;
};

/// A pure identifier: ordered and hashable so it can key containers,
/// with no arithmetic at all.
template <class Tag, class Rep>
class Identifier {
 public:
  using rep = Rep;

  constexpr Identifier() = default;
  constexpr explicit Identifier(Rep value) : value_(value) {}

  [[nodiscard]] constexpr Rep value() const { return value_; }

  constexpr auto operator<=>(const Identifier&) const = default;

 private:
  Rep value_ = 0;
};

using Microseconds = Quantity<struct MicrosecondsTag>;
using Macroticks = Quantity<struct MacroticksTag>;

using CycleIndex = Ordinal<struct CycleIndexTag>;
using SlotId = Ordinal<struct SlotIdTag>;
using MinislotId = Ordinal<struct MinislotIdTag>;

using FrameId = Identifier<struct FrameIdTag, std::uint16_t>;
using NodeId = Identifier<struct NodeIdTag, std::int32_t>;

/// The FrameId of a frame transmitted in a slot equals the slot number
/// (FlexRay spec §4.1); this is the one sanctioned SlotId -> FrameId
/// conversion. Throws when the slot number exceeds the 11-bit id space.
[[nodiscard]] constexpr FrameId to_frame_id(SlotId slot) {
  if (slot.value() < 0 || slot.value() > 2047) {
    overflow_trap("to_frame_id: slot outside the 11-bit frame-id space");
  }
  return FrameId{static_cast<std::uint16_t>(slot.value())};
}

// --- Zero-overhead guarantees -------------------------------------------
// A strong type must compile down to its representation: same size, no
// vtable, trivially copyable, usable in memcpy'd aggregates.
#define COEFF_UNITS_ASSERT_ZERO_OVERHEAD(T, Rep)          \
  static_assert(sizeof(T) == sizeof(Rep));                \
  static_assert(alignof(T) == alignof(Rep));              \
  static_assert(std::is_trivially_copyable_v<T>);         \
  static_assert(std::is_standard_layout_v<T>);            \
  static_assert(std::is_nothrow_default_constructible_v<T>)

COEFF_UNITS_ASSERT_ZERO_OVERHEAD(Microseconds, std::int64_t);
COEFF_UNITS_ASSERT_ZERO_OVERHEAD(Macroticks, std::int64_t);
COEFF_UNITS_ASSERT_ZERO_OVERHEAD(CycleIndex, std::int64_t);
COEFF_UNITS_ASSERT_ZERO_OVERHEAD(SlotId, std::int64_t);
COEFF_UNITS_ASSERT_ZERO_OVERHEAD(MinislotId, std::int64_t);
COEFF_UNITS_ASSERT_ZERO_OVERHEAD(FrameId, std::uint16_t);
COEFF_UNITS_ASSERT_ZERO_OVERHEAD(NodeId, std::int32_t);

#undef COEFF_UNITS_ASSERT_ZERO_OVERHEAD

}  // namespace coeff::units

// Hash support so identifiers and ordinals can key unordered containers.
template <class Tag>
struct std::hash<coeff::units::Ordinal<Tag>> {
  std::size_t operator()(coeff::units::Ordinal<Tag> v) const noexcept {
    return std::hash<std::int64_t>{}(v.value());
  }
};

template <class Tag, class Rep>
struct std::hash<coeff::units::Identifier<Tag, Rep>> {
  std::size_t operator()(coeff::units::Identifier<Tag, Rep> v) const noexcept {
    return std::hash<Rep>{}(v.value());
  }
};
