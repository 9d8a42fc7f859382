// Negative-compilation matrix for the units layer (DESIGN.md §10).
//
// Each MISUSE_* block is a statement that the strong types must REJECT
// at compile time; check_misuse.cmake compiles this file once per macro
// with -fsyntax-only and asserts failure. MISUSE_OK is the positive
// control: it must compile, proving the harness, include paths and
// language mode are sound (otherwise every negative case would "pass"
// vacuously).
#include <cstdint>

#include "units/convert.hpp"
#include "units/units.hpp"

namespace u = coeff::units;
namespace sim = coeff::sim;

void misuse() {
  [[maybe_unused]] u::Microseconds us{40};
  [[maybe_unused]] u::Macroticks mt{8};
  [[maybe_unused]] u::CycleIndex cycle{2};
  [[maybe_unused]] u::SlotId slot{5};
  [[maybe_unused]] u::MinislotId mini{3};
  [[maybe_unused]] u::FrameId frame{17};
  [[maybe_unused]] u::NodeId node{1};

#if defined(MISUSE_OK)
  // Sanctioned operations only; must compile.
  [[maybe_unused]] auto a = mt + u::Macroticks{1};
  [[maybe_unused]] auto b = us * 2;
  [[maybe_unused]] auto c = cycle + 1;
  [[maybe_unused]] auto d = u::to_frame_id(slot);
  [[maybe_unused]] auto e = u::to_time(us);
#elif defined(MISUSE_CROSS_UNIT_ADD)
  // Microseconds + Macroticks is dimensionally meaningless.
  [[maybe_unused]] auto x = us + mt;
#elif defined(MISUSE_IMPLICIT_FROM_RAW)
  // No implicit construction from the raw representation.
  [[maybe_unused]] u::Macroticks x = 8;
#elif defined(MISUSE_IMPLICIT_TO_RAW)
  // No implicit conversion back to the raw representation.
  [[maybe_unused]] std::int64_t x = mt;
#elif defined(MISUSE_QUANTITY_TIMES_QUANTITY)
  // MT * MT has no meaning in this codebase (and would be MT^2 anyway).
  [[maybe_unused]] auto x = mt * mt;
#elif defined(MISUSE_ORDINAL_PLUS_ORDINAL)
  // Positions don't add; only position +/- step and position - position.
  [[maybe_unused]] auto x = cycle + u::CycleIndex{1};
#elif defined(MISUSE_CROSS_ORDINAL_COMPARE)
  // A slot number is not a minislot number.
  [[maybe_unused]] bool x = slot == mini;
#elif defined(MISUSE_CROSS_ORDINAL_DIFF)
  [[maybe_unused]] auto x = slot - mini;
#elif defined(MISUSE_IDENTIFIER_ARITHMETIC)
  // Identifiers carry no arithmetic at all.
  [[maybe_unused]] auto x = frame + 1;
#elif defined(MISUSE_IDENTIFIER_CROSS_COMPARE)
  // A frame id is not a node id, even when both hold small integers.
  [[maybe_unused]] bool x = frame == node;
#elif defined(MISUSE_SLOT_AS_FRAME_WITHOUT_CONVERSION)
  // The SlotId -> FrameId crossing must go through to_frame_id.
  [[maybe_unused]] u::FrameId x{slot};
#elif defined(MISUSE_TIME_FROM_MACROTICKS_WITHOUT_GRID)
  // Macroticks -> sim::Time needs the configured macrotick length.
  [[maybe_unused]] sim::Time x = u::to_time(mt);
#elif defined(MISUSE_QUANTITY_DIVIDE_CROSS_UNIT)
  // "How many macroticks fit in these microseconds" must go through
  // the named grid conversions, never raw division.
  [[maybe_unused]] auto x = us / mt;
#else
#error "units_misuse.cpp compiled without selecting a MISUSE_* case"
#endif
}
