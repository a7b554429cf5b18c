#include "sim/timing_wheel.h"

namespace mpr::sim {

namespace {
// Slot-distance from the cursor's slot index to the bitmap's next occupied
// slot, in circular order: rotate so the cursor's slot lands at bit 0, then
// count trailing zeros. Exact, because insert() keeps every stored entry
// strictly within one lap of the cursor at its level.
[[nodiscard]] int slot_distance(std::uint64_t occupied, int cursor_index) {
  return std::countr_zero(std::rotr(occupied, cursor_index));
}
}  // namespace

TimingWheel::TimingWheel() = default;

void TimingWheel::insert(const Entry& e) {
  const std::int64_t tick = to_tick(e.when.ns());
  assert(tick >= cursor_ && "wheel insert below cursor; route near events to the run");
  const std::int64_t delta = tick - cursor_;

  // Smallest level whose span covers the delta: 6 bits of delta per level.
  int level = delta > 0 ? (std::bit_width(static_cast<std::uint64_t>(delta)) - 1) / kSlotBits : 0;
  // Slot-boundary correction: when the cursor sits mid-slot, an entry just
  // under a full span ahead can land exactly one lap around — on the
  // cursor's own slot index — which would make its slot look already due
  // and re-open forever. Bump it a level so every stored entry is strictly
  // within one lap (the bitmap distances below are then exact).
  while (level < kLevels &&
         ((tick >> (kSlotBits * level)) - (cursor_ >> (kSlotBits * level))) >=
             static_cast<std::int64_t>(kSlots)) {
    ++level;
  }

  std::int64_t slot_tick;  // slot-aligned start tick of the chosen bucket
  if (level >= kLevels) {
    // Beyond the top-level horizon (~6.5 days): clamp into the last slot of
    // the top level relative to the cursor. Each time the cursor reaches it
    // the entry re-buckets ~63/64 of a top-level span further along, so it
    // converges without a dedicated overflow structure.
    level = kLevels - 1;
    const int shift = kSlotBits * level;
    slot_tick = ((cursor_ >> shift) + (kSlots - 1)) << shift;
  } else {
    const int shift = kSlotBits * level;
    slot_tick = (tick >> shift) << shift;
  }

  const int shift = kSlotBits * level;
  const int index = static_cast<int>((slot_tick >> shift) & (kSlots - 1));
  buckets_[level][index].push_back(e);
  occupied_[level] |= std::uint64_t{1} << index;
  ++size_;

  const TimePoint due = TimePoint::from_ns(slot_tick << kResolutionBits);
  if (due < next_due_) next_due_ = due;
}

std::int64_t TimingWheel::earliest_slot(int& level) const {
  level = -1;
  std::int64_t best = 0;
  for (int j = 0; j < kLevels; ++j) {
    if (occupied_[j] == 0) continue;
    const int shift = kSlotBits * j;
    const int cj = static_cast<int>((cursor_ >> shift) & (kSlots - 1));
    const int d = slot_distance(occupied_[j], cj);
    const std::int64_t start = ((cursor_ >> shift) + d) << shift;
    if (level < 0 || start < best) {
      best = start;
      level = j;
    }
  }
  return best;
}

void TimingWheel::recompute_next_due() {
  int level = -1;
  const std::int64_t start = earliest_slot(level);
  next_due_ = level < 0 ? TimePoint::max() : TimePoint::from_ns(start << kResolutionBits);
}

}  // namespace mpr::sim
