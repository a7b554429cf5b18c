// Hierarchical timing wheel for far-out events.
//
// The EventQueue's short sorted run is the right structure for the dense
// near-term packet events, but timers (RTO, delayed-ACK, join-retry,
// dead-path deadlines) have a different access pattern: armed constantly,
// cancelled almost always, fired almost never. In the run every arm would
// be an insertion step past every packet in flight, and every cancel would
// leave a tombstone that must later be popped off its back. The wheel
// makes arm an O(1) bucket append and lets a cancelled timer die in place
// — its tombstone is swept in bulk when the slot expires, never travelling
// through the run at all.
//
// Layout: kLevels levels of kSlots slots each; level j slots are
// 64^j level-0 ticks wide (one tick = 2^kResolutionBits ns). An entry is
// bucketed by its absolute due tick relative to the wheel cursor; slots
// are found lazily via per-level occupancy bitmaps (rotate + countr_zero),
// so advancing across an idle hour costs O(levels), not O(ticks).
//
// Ordering contract: the wheel never executes anything and never decides
// order. advance(t) hands every entry whose *slot* has opened by `t` to a
// sink; the sink (the EventQueue's sorted run) re-establishes exact
// (when, seq) order before execution. Slot granularity therefore only
// bounds how early an entry is handed over — never how late: an entry's
// slot start is <= its due time, so it always reaches the run before the
// clock passes it. This is what keeps outputs bit-identical to a scheduler
// without a wheel.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>

#include "sim/flat_vec.h"
#include "sim/time.h"

namespace mpr::sim {

class TimingWheel {
 public:
  /// What the wheel stores: the due time plus the EventQueue's packed
  /// (seq << slot-bits) | slot word, opaque to the wheel itself. Matching
  /// the run's 16-byte record means bucket drains and cascades move the
  /// same four entries per cache line an insertion step shifts.
  struct Entry {
    TimePoint when;
    std::uint64_t seq_slot{0};
  };
  static_assert(sizeof(TimePoint) == 8, "Entry assumes an 8-byte TimePoint");

  static constexpr int kSlotBits = 6;  // 64 slots per level
  static constexpr int kSlots = 1 << kSlotBits;
  static constexpr int kLevels = 5;
  /// One level-0 tick = 2^19 ns ~ 524 us. Spans per level: 33.6 ms,
  /// 2.15 s, 2.3 min, 2.4 h, 6.5 days; anything further is clamped into
  /// the top level and re-bucketed as the cursor approaches.
  static constexpr int kResolutionBits = 19;

  TimingWheel();

  /// Files `e` by its due tick. Precondition: tick(e.when) >= cursor
  /// (callers route anything nearer straight to the run; see
  /// min_insert_ns()).
  void insert(const Entry& e);

  /// Opens every slot whose start time is <= `t`: level-0 entries go to
  /// `sink`, higher-level slots cascade down (re-bucketed relative to the
  /// new cursor; entries already due are sunk directly). A cascading entry
  /// that `keep` refuses (a cancelled timer) is sunk at once rather than
  /// re-bucketed. The cursor ends past tick(t), so the wheel is driven
  /// purely by the event clock — there is no periodic tick.
  template <typename Sink, typename Keep>
  void advance(TimePoint t, Sink&& sink, Keep&& keep) {
    const std::int64_t target = to_tick(t.ns());
    for (;;) {
      int level = -1;
      const std::int64_t start = earliest_slot(level);
      if (level < 0 || start > target) break;
      open_slot(level, start, target, sink, keep);
    }
    if (cursor_ <= target) cursor_ = target + 1;
    recompute_next_due();
  }

  /// Lower bound on the earliest entry's due time: the start time of the
  /// earliest occupied slot (TimePoint::max() when empty). The EventQueue
  /// compares this against its next record to decide when the wheel must be
  /// advanced; one cached int64 compare per pop.
  [[nodiscard]] TimePoint next_due() const { return next_due_; }

  /// Earliest `when` that insert() currently accepts. Anything nearer is
  /// the caller's to keep (the run); this floor only moves forward when
  /// advance() runs.
  [[nodiscard]] std::int64_t min_insert_ns() const { return cursor_ << kResolutionBits; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  [[nodiscard]] static constexpr std::int64_t to_tick(std::int64_t ns) {
    return ns >> kResolutionBits;
  }

  /// Earliest occupied slot across all levels; returns its start tick and
  /// stores the level in `level` (-1 if the wheel is empty).
  [[nodiscard]] std::int64_t earliest_slot(int& level) const;

  /// Expires/cascades the level-`level` slot starting at `start` ticks.
  template <typename Sink, typename Keep>
  void open_slot(int level, std::int64_t start, std::int64_t target, Sink&& sink, Keep&& keep) {
    const int index = static_cast<int>((start >> (kSlotBits * level)) & (kSlots - 1));
    FlatVec<Entry>& bucket = buckets_[level][index];
    occupied_[level] &= ~(std::uint64_t{1} << index);
    // The cursor has logically reached this slot; re-bucketing of any
    // cascaded entry is relative to it.
    if (cursor_ < start) cursor_ = start;
    // Swap into a scratch vector: a cascade re-inserts into lower-level
    // buckets and must not alias the one being drained. The scratch's
    // capacity is recycled across opens, so steady state does not allocate.
    scratch_.swap(bucket);
    size_ -= scratch_.size();
    for (const Entry& e : scratch_) {
      if (level == 0 || to_tick(e.when.ns()) <= target || !keep(e)) {
        sink(e);
      } else {
        insert(e);  // cascade: lands in a lower level (or earlier slot)
      }
    }
    scratch_.clear();
  }

  void recompute_next_due();

  /// Cursor in level-0 ticks: every slot starting before it has been
  /// opened. Entries always live at tick >= cursor_.
  std::int64_t cursor_{0};
  std::size_t size_{0};
  TimePoint next_due_{TimePoint::max()};
  std::uint64_t occupied_[kLevels]{};
  // FlatVec keeps bucket growth out of insert()'s emitted code — insert is
  // on the audited hot path (see sim/flat_vec.h).
  FlatVec<Entry> buckets_[kLevels][kSlots];
  FlatVec<Entry> scratch_;
};

static_assert(sizeof(TimingWheel::Entry) == 16,
              "wheel entries are sized to pack four per cache line, like the run's records");

}  // namespace mpr::sim
