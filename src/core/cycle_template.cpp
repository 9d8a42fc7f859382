#include "core/cycle_template.hpp"

#include <numeric>

namespace coeff::core {

void CycleTemplate::rebuild(const sched::StaticScheduleTable& table,
                            const net::MessageSet& statics,
                            const std::unordered_map<int, int>* budget,
                            std::int64_t num_slots) {
  // The table indexes a placement only in a slot it has and with a
  // positive repetition; message_at never answers with the others.
  const auto indexed = [num_slots](const sched::SlotAssignment& a) {
    return a.slot.value() >= 1 && a.slot.value() <= num_slots &&
           a.repetition >= 1;
  };
  const auto slot_of = [this](const sched::SlotAssignment& a) -> SlotRows& {
    return slots_[static_cast<std::size_t>(a.slot.value() - 1)];
  };

  slots_.assign(static_cast<std::size_t>(num_slots), SlotRows{0, 1});
  for (const auto& a : table.assignments()) {
    if (!indexed(a)) continue;
    std::int64_t& period = slot_of(a).period;
    period = std::lcm(period, a.repetition);
  }
  std::int64_t n = 0;
  for (auto& s : slots_) {
    s.row0 = n;
    n += s.period;
  }
  const auto cells = static_cast<std::size_t>(n);
  message_.assign(cells, nullptr);
  budget_.assign(cells, 0);
  first_cycle_.assign(cells, 0);

  // Past every base, message_at answers with the first placement, in
  // assignments() order, whose base ≡ cycle (mod repetition). Each
  // repetition divides its slot's period, so that answer depends only
  // on cycle % period. Stamp the placements last to first, so the first
  // one writes its rows last and wins. A placement whose id is outside
  // `statics` (only a from_assignments table can carry one) leaves its
  // rows idle. A cell's first active cycle is its occupant's base:
  // warm-up cycles stay idle.
  const auto& placements = table.assignments();
  for (auto a = placements.rbegin(); a != placements.rend(); ++a) {
    if (!indexed(*a)) continue;
    const net::Message* m = statics.find(a->message_id);
    std::int64_t first = 0;
    std::int32_t k = 0;
    if (m != nullptr) {
      first = table.assignment_of(a->message_id)->base_cycle.value();
      if (budget != nullptr) {
        auto it = budget->find(m->id);
        if (it != budget->end()) k = it->second;
      }
    }
    const SlotRows& s = slot_of(*a);
    const std::int64_t rep = a->repetition;
    for (std::int64_t row = (a->base_cycle.value() % rep + rep) % rep;
         row < s.period; row += rep) {
      const auto i = static_cast<std::size_t>(s.row0 + row);
      message_[i] = m;
      budget_[i] = k;
      first_cycle_[i] = first;
    }
  }
}

}  // namespace coeff::core
