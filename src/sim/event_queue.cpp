#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <utility>

namespace mpr::sim {

std::atomic<std::uint64_t> EventQueue::total_executed_{0};

namespace {
// Typical runs keep a few dozen pending events (timers + in-flight packets);
// pre-sizing the slot table and the run avoids the early growth reallocations.
constexpr std::size_t kInitialCapacity = 256;
}  // namespace

EventQueue::EventQueue() {
  near_.reserve(kInitialCapacity);
  meta_.reserve(kInitialCapacity);
  free_slots_.reserve(kInitialCapacity);
}

EventQueue::~EventQueue() {
  for (ActionSlot* chunk : arena_) delete[] chunk;
  total_executed_.fetch_add(executed_, std::memory_order_relaxed);
}

void EventQueue::grow_arena() { arena_.push_back(new ActionSlot[kArenaChunkSize]); }

std::uint32_t EventQueue::add_slot() {
  const auto slot = static_cast<std::uint32_t>(slot_count_);
  // A record packs slot indices into 24 bits; running out means 16.7M
  // events pending at once — far beyond anything real, so treat it as the
  // hard programming error it is rather than corrupting event order.
  if (slot >= kMaxSlots) std::abort();
  if ((slot_count_ & (kArenaChunkSize - 1)) == 0) {
    grow_arena();
  }
  ++slot_count_;
  meta_.push_back(SlotMeta{0, 0});
  return slot;
}

// The slot's action is already empty: pop_and_execute's run and cancel's
// drop both leave it so.
void EventQueue::release_slot(std::uint32_t slot) {
  SlotMeta& m = meta_[slot];
  m.live = 0;
  ++m.gen;  // invalidates every id minted for the previous occupant
  free_slots_.push_back(slot);
}

// Every record that runs before `rec` moves one place toward the back, and
// `rec` takes the gap, so the run stays sorted latest-first.
void EventQueue::near_insert(NearRec rec) {
  std::size_t i = near_.size();
  near_.push_back(rec);
  while (i > 0 && rec_less(near_[i - 1], rec)) {
    near_[i] = near_[i - 1];
    --i;
  }
  near_[i] = rec;
}

EventId EventQueue::enqueue(TimePoint when, std::uint64_t seq, std::uint32_t slot) {
#if MPR_AUDIT
  if (meta_[slot].live != 0) {
    check::report({.rule = "event.slot_reuse",
                   .detail = "free-list slot " + std::to_string(slot) + " still live on acquire",
                   .time_ns = now_.ns()});
  }
#endif
  meta_[slot].live = 1;
  if (when < now_) when = now_;  // never schedule into the past
  const EventId id = encode(slot, meta_[slot].gen);
  assert(seq < (std::uint64_t{1} << (64 - kSlotIndexBits)) && "seq overflows packed record");
  // Far-out events park in the wheel; near ones go straight to the run.
  // The min_insert_ns() guard covers the window where the wheel cursor has
  // run ahead of now_ (it moves to the drain target, which can exceed the
  // time of the event that ends up executing). Routing never affects
  // execution order — see the ordering contract in the header.
  if (when.ns() - now_.ns() >= kWheelMinDelayNs && when.ns() >= wheel_.min_insert_ns()) {
    wheel_.insert(TimingWheel::Entry{when, pack(seq, slot)});
    wheel_next_due_ns_ = wheel_.next_due().ns();
  } else {
    near_insert(NearRec{when.ns(), pack(seq, slot)});
  }
  ++live_count_;
  return id;
}

bool EventQueue::cancel(EventId id) {
  if (id == kInvalidEventId) return false;
  const std::uint64_t slot_plus_one = id & 0xffffffffu;
  if (slot_plus_one == 0 || slot_plus_one > slot_count_) return false;
  const auto slot = static_cast<std::uint32_t>(slot_plus_one - 1);
  SlotMeta& m = meta_[slot];
  if (m.live == 0 || m.gen != static_cast<std::uint32_t>(id >> 32)) return false;
  // Tombstone: drop the action now (frees captured state), leave the run's
  // record or the wheel entry to be skipped when it surfaces. The slot is
  // recycled only then, so the id space stays unambiguous.
  m.live = 0;
  arena_action(slot).drop();
  --live_count_;
  return true;
}

bool EventQueue::prepare_top(std::int64_t limit_ns) {
  for (;;) {
    // Sweep tombstoned records off the back so near_.back(), if present, is
    // live. Only the dense 8-byte meta records are touched — a sweep never
    // drags the 64-byte action lines through the cache.
    while (!near_.empty() && meta_[slot_of(near_.back().seq_slot)].live == 0) {
      release_slot(slot_of(near_.back().seq_slot));
      near_.pop_back();
    }
    const std::int64_t top_ns = near_.empty() ? kNoWheelEvent : near_.back().when_ns;
    // One int64 compare decides whether the wheel can matter: its cached
    // next_due is a lower bound on every parked entry's time. Equality must
    // drain too — a wheel entry at the same instant can carry a lower seq.
    if (wheel_next_due_ns_ == kNoWheelEvent || wheel_next_due_ns_ > top_ns ||
        wheel_next_due_ns_ > limit_ns) {
      return top_ns != kNoWheelEvent && top_ns <= limit_ns;
    }
    // Drain every wheel slot that could start at or before the earliest
    // runnable instant. Entries land in the run (or die, if tombstoned);
    // the next pass of the loop re-evaluates the new top. With the run
    // empty, that instant is the wheel's own next slot, not `limit_ns`:
    // draining to a far deadline would move the cursor out to it, and every
    // timer armed after that would skip the wheel and leave its tombstone
    // in the run.
    const std::int64_t target = near_.empty() ? wheel_next_due_ns_ : std::min(top_ns, limit_ns);
    // A cancelled timer leaves the wheel at the first slot it reaches, so
    // its tombstone is not carried down a level.
    wheel_.advance(
        TimePoint::from_ns(target),
        [this](const TimingWheel::Entry& e) {
          const std::uint32_t slot = slot_of(e.seq_slot);
          if (meta_[slot].live != 0) {
            near_insert(NearRec{e.when.ns(), e.seq_slot});  // already the packed word
          } else {
            release_slot(slot);  // cancelled while parked: never touches the run
          }
        },
        [this](const TimingWheel::Entry& e) { return meta_[slot_of(e.seq_slot)].live != 0; });
    wheel_next_due_ns_ = wheel_.next_due().ns();
  }
}

void EventQueue::pop_and_execute() {
  const std::int64_t t_ns = near_.back().when_ns;
  const std::uint32_t slot = slot_of(near_.back().seq_slot);
#if MPR_AUDIT
  order_audit_.on_event(t_ns, near_.back().seq_slot >> kSlotIndexBits);
#endif
  near_.pop_back();
  now_ = TimePoint::from_ns(t_ns);
  // Mark dead before invoking so a cancel() of this very id returns false
  // (the event is running, not pending), then run and destroy the action
  // *in place*: the arena chunk is stable, so the action stays valid even
  // if it schedules enough new events to grow the slot table. The slot is
  // recycled only after the call returns — new events scheduled by the
  // action can never land in it mid-execution. An action that throws stays
  // in its slot, which is never recycled; the arena destroys it at teardown.
  meta_[slot].live = 0;
  --live_count_;
  ++executed_;
  arena_action(slot).run();
  release_slot(slot);
}

bool EventQueue::step(TimePoint limit) {
  if (!prepare_top(limit.ns())) {
#if MPR_AUDIT
    // Only an unbounded step proves the queue drained; a bounded one
    // leaves the events after its limit pending.
    if (limit == TimePoint::max() && live_count_ != 0) {
      check::report({.rule = "event.live_count",
                     .detail = std::to_string(live_count_) +
                               " live event(s) unaccounted for in a drained queue",
                     .time_ns = now_.ns()});
    }
#endif
    return false;
  }
  pop_and_execute();
  return true;
}

void EventQueue::run_until(TimePoint deadline) {
  while (step(deadline)) {
  }
  if (now_ < deadline) now_ = deadline;
}

void EventQueue::run() {
  while (step()) {
  }
}

}  // namespace mpr::sim
