// Discrete-event scheduler.
//
// Two tiers: a short run of near-term records kept sorted for the dense
// events less than kWheelMinDelayNs ahead (packet hops, ACK deliveries,
// same-instant work), and a hierarchical timing wheel (sim/timing_wheel.h)
// for far-out timers (RTO, delayed-ACK, retries), which are armed
// constantly and cancelled almost always. All simulator components
// schedule through this queue; there is no other source of time.
//
// Ordering contract: events run in exact (when, seq) order, where seq is
// drawn at schedule time — FIFO among events scheduled for the same
// instant — or reserved earlier with reserve_seq() for an event filed later
// by schedule_reserved(). A reserved event runs exactly where it would have
// run had it been scheduled when its seq was drawn, provided it is filed
// before the queue runs anything ordered after it (a link's delivery lane,
// net/link.h, files each packet's delivery when the one ahead of it runs).
// The wheel never reorders anything: it hands entries to the run no later
// than their due time (a slot's start is <= every due time inside it), and
// the run is the sole execution source. Routing between tiers therefore
// cannot change outputs.
//
// The near-term run is one FlatVec sorted latest-first. Since the wheel
// takes everything 16 ms or more ahead, and each link files only the next
// delivery of its lane, it holds a handful of records on average in a
// download. At that size one insertion step beats a heap: a
// schedule walks from the back past every earlier record and puts the new
// one there, the next event is back(), and a pop is pop_back(). The trade
// is that a schedule costs O(records it passes), so a queue that holds
// thousands of events microseconds apart (a shape no simulated run has) is
// slower than with a heap.
//
// Cancellation uses a generation/tombstone slot scheme instead of a hash
// set: every pending event owns a slot in a recycled slot table, its id
// encodes (slot, generation), and cancel() just tombstones the slot. A
// tombstone parked in the wheel is swept in bulk when its slot opens — it
// never travels through the run at all, which is what makes the timer
// arm/cancel churn of every data flight cheap.
//
// Data layout: the run holds only 16-byte (when, seq, slot) records — seq
// and slot share one word, with seq in the high bits so the packed compare
// still orders FIFO at equal times. The 64-byte actions never move: they
// live in a chunked slot arena whose chunks are stable for the arena's
// lifetime. schedule_at/schedule_after take the closure as a template
// argument and construct it directly in its slot (its one move), and the
// event runs it *in place* with one indirect call that invokes and then
// destroys it — not moved out per event, not shifted by insertion steps,
// not reallocated when the slot table grows. Slot liveness/generation sits
// in a separate dense meta array so the tombstone sweep at the back of the
// run touches 8-byte records, not action cache lines.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

#include "check/audit.h"
#include "sim/action_slot.h"
#include "sim/flat_vec.h"
#include "sim/time.h"
#include "sim/timing_wheel.h"

namespace mpr::sim {

/// Token identifying a scheduled event; valid until the event fires or is
/// cancelled. Id 0 is never issued.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  /// Events at least this far ahead of now() go to the timing wheel; nearer
  /// ones (packet hops, same-instant work) go straight to the run. Sized
  /// so every protocol timer (delayed-ACK 40ms, RTO >= 200ms) wheels while
  /// sub-RTT packet events never pay the wheel detour.
  static constexpr std::int64_t kWheelMinDelayNs = 16'000'000;

  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current simulated time. Advances only while events run.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules the void() closure `action` at absolute time `when` (must be
  /// >= now()). The closure is built in its slot.
  template <typename F>
  EventId schedule_at(TimePoint when, F&& action) {
    return schedule_reserved(when, reserve_seq(), std::forward<F>(action));
  }

  /// Draws the seq of an event the caller files later with
  /// schedule_reserved(): its place among events at the same instant is
  /// fixed now, as if it were scheduled now.
  [[nodiscard]] std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedules `action` at `when` under `seq`, drawn by reserve_seq() and
  /// not used before. The caller files it before the queue runs any event
  /// ordered after (when, seq); filed later, it runs out of order, which
  /// the MPR_AUDIT build reports.
  template <typename F>
  EventId schedule_reserved(TimePoint when, std::uint64_t seq, F&& action) {
    const std::uint32_t slot = acquire_slot();
    arena_action(slot).emplace(std::forward<F>(action));
    return enqueue(when, seq, slot);
  }

  /// Schedules `action` after `delay` (clamped to >= 0).
  template <typename F>
  EventId schedule_after(Duration delay, F&& action) {
    if (delay < Duration::zero()) delay = Duration::zero();
    return schedule_at(now_ + delay, std::forward<F>(action));
  }

  /// Cancels a pending event. Returns true if the event was still pending.
  bool cancel(EventId id);

  /// Runs the earliest pending event if it is due at or before `limit`.
  /// Returns false, running nothing, when no live event is due by then.
  /// The one bounded step behind run_until and Simulation::run_while.
  bool step(TimePoint limit = TimePoint::max());

  /// Runs events until the queue drains or `deadline` is passed. Events at
  /// exactly `deadline` still run; now() never exceeds `deadline` afterwards.
  void run_until(TimePoint deadline);

  /// Runs until the queue drains.
  void run();

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_count_ == 0; }

  /// Number of live pending events.
  [[nodiscard]] std::size_t pending() const { return live_count_; }

  /// Records in the near-term run, cancelled ones not yet swept included.
  /// Timers park in the wheel, so this follows the packets in flight, not
  /// the timer churn (the wheel-routing tests read it).
  [[nodiscard]] std::size_t near_size() const { return near_.size(); }

  /// Total events executed so far (for instrumentation and benchmarks).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Events executed by every EventQueue already destroyed, process-wide.
  /// Benches use this for aggregate events/sec across campaign runs (each
  /// run owns one queue and accumulates here when it is torn down).
  [[nodiscard]] static std::uint64_t total_executed() {
    return total_executed_.load(std::memory_order_relaxed);
  }

  /// Slot indices fit 24 bits: 16.7M *simultaneously pending* events, ~3
  /// orders of magnitude above any real run. seq gets the remaining 40
  /// bits, monotonically increasing per queue — the packed word compares
  /// (seq, slot) lexicographically, and since seqs are unique the slot
  /// bits never decide an ordering.
  static constexpr unsigned kSlotIndexBits = 24;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotIndexBits;

 private:
  // The run moves NearRec values only; actions stay put in the slot arena.
  struct NearRec {
    std::int64_t when_ns;
    std::uint64_t seq_slot;  // (seq << kSlotIndexBits) | slot
  };
  // What an insertion step shifts: fixed 16-byte records, four per cache
  // line, the size of a wheel entry. Growing it past this fails the build
  // before it quietly doubles the bytes every schedule moves.
  static_assert(sizeof(NearRec) == 16);
  static_assert(std::is_trivially_copyable_v<NearRec>);

  struct SlotMeta {
    std::uint32_t gen{0};
    std::uint32_t live{0};
  };
  static_assert(sizeof(SlotMeta) == 8, "tombstone sweep walks 8-byte meta records");

  // Actions live in fixed-size chunks that never move once allocated, so
  // executing in place stays valid even when an action schedules enough
  // new events to grow the slot table mid-call.
  static constexpr unsigned kArenaChunkBits = 8;  // 256 actions per chunk
  static constexpr std::size_t kArenaChunkSize = std::size_t{1} << kArenaChunkBits;

  [[nodiscard]] static EventId encode(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | (static_cast<EventId>(slot) + 1);
  }
  [[nodiscard]] static std::uint64_t pack(std::uint64_t seq, std::uint32_t slot) {
    return (seq << kSlotIndexBits) | slot;
  }
  [[nodiscard]] static std::uint32_t slot_of(std::uint64_t seq_slot) {
    return static_cast<std::uint32_t>(seq_slot & (kMaxSlots - 1));
  }
  [[nodiscard]] static bool rec_less(const NearRec& a, const NearRec& b) {
    if (a.when_ns != b.when_ns) return a.when_ns < b.when_ns;
    return a.seq_slot < b.seq_slot;
  }

  [[nodiscard]] ActionSlot& arena_action(std::uint32_t slot) {
    return arena_[slot >> kArenaChunkBits][slot & (kArenaChunkSize - 1)];
  }

  /// A free slot with an empty action; not yet live (enqueue makes it so).
  std::uint32_t acquire_slot() {
    if (free_slots_.empty()) [[unlikely]] {
      return add_slot();
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  /// Grows the slot table by one (and the arena by a chunk every
  /// kArenaChunkSize slots): once per slot high-water mark, not per event.
  [[gnu::noinline]] std::uint32_t add_slot();
  void release_slot(std::uint32_t slot);  // bumps generation, recycles

  /// The out-of-line half of a schedule, once the action sits in `slot`:
  /// marks the slot live and files the event under `seq` in the run or the
  /// wheel.
  EventId enqueue(TimePoint when, std::uint64_t seq, std::uint32_t slot);

  // Appends one arena chunk. Out of line and cold: add_slot is on the
  // audited hot path, and this is its only allocation.
  [[gnu::noinline, gnu::cold]] void grow_arena();

  /// Files `rec` in the run: one insertion step from the back.
  void near_insert(NearRec rec);

  /// Makes near_.back() the globally earliest live event: sweeps tombstoned
  /// records off the back and drains the wheel whenever a wheel slot could
  /// start at or before that record (bounded by `limit_ns` so run_until
  /// never opens slots beyond its deadline). Returns false when nothing
  /// live remains at or before the limit.
  bool prepare_top(std::int64_t limit_ns);

  /// Pops near_.back(), which prepare_top made live, advances the clock to
  /// it, runs and destroys its action in place and recycles the slot.
  void pop_and_execute();

  // FlatVec, not std::vector: these four grow on the audited hot path, and
  // FlatVec keeps the reallocation out of line (see sim/flat_vec.h).
  FlatVec<NearRec> near_;  // sorted latest-first: back() runs next
  FlatVec<SlotMeta> meta_;  // dense: liveness/generation only
  FlatVec<ActionSlot*> arena_;  // stable owned chunks of actions (freed in dtor)
  std::size_t slot_count_{0};
  FlatVec<std::uint32_t> free_slots_;
  TimingWheel wheel_;
  std::int64_t wheel_next_due_ns_{kNoWheelEvent};
  TimePoint now_{};
  std::uint64_t next_seq_{0};
  std::size_t live_count_{0};
  std::uint64_t executed_{0};

  static constexpr std::int64_t kNoWheelEvent = std::numeric_limits<std::int64_t>::max();

#if MPR_AUDIT
  check::TimeMonotonicAudit order_audit_;
#endif

  static std::atomic<std::uint64_t> total_executed_;
};

}  // namespace mpr::sim
