#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <utility>

namespace mpr::sim {

std::atomic<std::uint64_t> EventQueue::total_executed_{0};

namespace {
// Typical runs keep a few dozen pending events (timers + in-flight packets);
// pre-sizing the slot table and heap avoids the early growth reallocations.
constexpr std::size_t kInitialCapacity = 256;
}  // namespace

EventQueue::EventQueue() {
  heap_.reserve(kInitialCapacity);
  meta_.reserve(kInitialCapacity);
  free_slots_.reserve(kInitialCapacity);
}

EventQueue::~EventQueue() {
  for (Action* chunk : arena_) delete[] chunk;
  total_executed_.fetch_add(executed_, std::memory_order_relaxed);
}

void EventQueue::grow_arena() { arena_.push_back(new Action[kArenaChunkSize]); }

std::uint32_t EventQueue::acquire_slot(Action&& action) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
#if MPR_AUDIT
    if (meta_[slot].live != 0) {
      check::report({.rule = "event.slot_reuse",
                     .detail = "free-list slot " + std::to_string(slot) +
                               " still live on acquire",
                     .time_ns = now_.ns()});
    }
#endif
    arena_action(slot) = std::move(action);
    meta_[slot].live = 1;
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slot_count_);
  // The heap packs slot indices into 24 bits; running out means 16.7M
  // events pending at once — far beyond anything real, so treat it as the
  // hard programming error it is rather than corrupting event order.
  if (slot >= kMaxSlots) std::abort();
  if ((slot_count_ & (kArenaChunkSize - 1)) == 0) {
    grow_arena();
  }
  ++slot_count_;
  meta_.push_back(SlotMeta{0, 1});
  arena_action(slot) = std::move(action);
  return slot;
}

void EventQueue::release_slot(std::uint32_t slot) {
  arena_action(slot) = nullptr;
  SlotMeta& m = meta_[slot];
  m.live = 0;
  ++m.gen;  // invalidates every id minted for the previous occupant
  free_slots_.push_back(slot);
}

void EventQueue::heap_push(HeapRec rec) {
  std::size_t i = heap_.size();
  heap_.push_back(rec);
  while (i > 0) {
    const std::size_t p = (i - 1) >> 2;
    if (!rec_less(rec, heap_[p])) break;
    heap_[i] = heap_[p];
    i = p;
  }
  heap_[i] = rec;
}

void EventQueue::heap_pop_top() {
  const std::size_t n = heap_.size() - 1;
  const HeapRec rec = heap_[n];
  heap_.pop_back();
  if (n == 0) return;
  std::size_t i = 0;
  for (;;) {
    const std::size_t c = (i << 2) + 1;
    if (c >= n) break;
    std::size_t best = c;
    const std::size_t end = std::min(c + 4, n);
    for (std::size_t j = c + 1; j < end; ++j) {
      if (rec_less(heap_[j], heap_[best])) best = j;
    }
    if (!rec_less(heap_[best], rec)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = rec;
}

EventId EventQueue::schedule_at(TimePoint when, Action action) {
  assert(action);
  if (when < now_) when = now_;  // never schedule into the past
  const std::uint32_t slot = acquire_slot(std::move(action));
  const EventId id = encode(slot, meta_[slot].gen);
  const std::uint64_t seq = next_seq_++;
  assert(seq < (std::uint64_t{1} << (64 - kSlotIndexBits)) && "seq overflows packed heap record");
  // Far-out events park in the wheel; near ones go straight to the heap.
  // The min_insert_ns() guard covers the window where the wheel cursor has
  // run ahead of now_ (it moves to the drain target, which can exceed the
  // time of the event that ends up executing). Routing never affects
  // execution order — see the ordering contract in the header.
  if (when.ns() - now_.ns() >= kWheelMinDelayNs && when.ns() >= wheel_.min_insert_ns()) {
    wheel_.insert(TimingWheel::Entry{when, pack(seq, slot)});
    wheel_next_due_ns_ = wheel_.next_due().ns();
  } else {
    heap_push(HeapRec{when.ns(), pack(seq, slot)});
  }
  ++live_count_;
  return id;
}

EventId EventQueue::schedule_after(Duration delay, Action action) {
  if (delay < Duration::zero()) delay = Duration::zero();
  return schedule_at(now_ + delay, std::move(action));
}

bool EventQueue::cancel(EventId id) {
  if (id == kInvalidEventId) return false;
  const std::uint64_t slot_plus_one = id & 0xffffffffu;
  if (slot_plus_one == 0 || slot_plus_one > slot_count_) return false;
  const auto slot = static_cast<std::uint32_t>(slot_plus_one - 1);
  SlotMeta& m = meta_[slot];
  if (m.live == 0 || m.gen != static_cast<std::uint32_t>(id >> 32)) return false;
  // Tombstone: drop the action now (frees captured state), leave the heap
  // or wheel entry to be skipped when it surfaces. The slot is recycled
  // only then, so the id space stays unambiguous.
  m.live = 0;
  arena_action(slot) = nullptr;
  --live_count_;
  return true;
}

bool EventQueue::prepare_top(std::int64_t limit_ns) {
  for (;;) {
    // Sweep tombstoned heap tops so heap_[0], if present, is live. Only the
    // dense 8-byte meta records are touched — a sweep never drags the
    // 64-byte action lines through the cache.
    while (!heap_.empty() && meta_[slot_of(heap_[0].seq_slot)].live == 0) {
      const std::uint32_t slot = slot_of(heap_[0].seq_slot);
      heap_pop_top();
      release_slot(slot);
    }
    const std::int64_t top_ns = heap_.empty() ? kNoWheelEvent : heap_[0].when_ns;
    // One int64 compare decides whether the wheel can matter: its cached
    // next_due is a lower bound on every parked entry's time. Equality must
    // drain too — a wheel entry at the same instant can carry a lower seq.
    if (wheel_next_due_ns_ == kNoWheelEvent || wheel_next_due_ns_ > top_ns ||
        wheel_next_due_ns_ > limit_ns) {
      return top_ns != kNoWheelEvent && top_ns <= limit_ns;
    }
    // Drain every wheel slot that could start at or before the earliest
    // runnable instant. Entries land in the heap (or die, if tombstoned);
    // the next pass of the loop re-evaluates the new top.
    std::int64_t target = std::min(top_ns, limit_ns);
    if (target == kNoWheelEvent) target = wheel_next_due_ns_;
    wheel_.advance(TimePoint::from_ns(target), [this](const TimingWheel::Entry& e) {
      const std::uint32_t slot = slot_of(e.seq_slot);
      if (meta_[slot].live != 0) {
        heap_push(HeapRec{e.when.ns(), e.seq_slot});  // already the packed word
      } else {
        release_slot(slot);  // cancelled while parked: never touches the heap
      }
    });
    wheel_next_due_ns_ = wheel_.next_due().ns();
  }
}

void EventQueue::pop_and_execute() {
  const std::int64_t t_ns = heap_[0].when_ns;
  const std::uint32_t slot = slot_of(heap_[0].seq_slot);
  heap_pop_top();
  now_ = TimePoint::from_ns(t_ns);
#if MPR_AUDIT
  clock_audit_.on_event(t_ns);
#endif
  // Mark dead before invoking so a cancel() of this very id returns false
  // (the event is running, not pending), then execute *in place*: the
  // arena chunk is stable, so the action stays valid even if it schedules
  // enough new events to grow the slot table. The slot is recycled only
  // after the call returns — new events scheduled by the action can never
  // land in it mid-execution.
  meta_[slot].live = 0;
  --live_count_;
  ++executed_;
  arena_action(slot)();
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
                               " live event(s) unaccounted for in a drained heap",
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
