// The event queue's action slot: one void() closure in 64 bytes of inline
// storage, with no heap fallback.
//
// std::function heap-allocates any closure larger than its tiny SBO buffer
// (two pointers on libstdc++), which put an allocation on every packet hop:
// Link and Network capture an owning packet handle into each scheduled
// event. An ActionSlot gives every event action 64 bytes in the queue's
// arena and *refuses to compile* a larger capture, so the event hot path
// can never silently regress back to the heap. Captures that genuinely need
// more state must box it explicitly (e.g. capture a unique_ptr/shared_ptr),
// making the allocation visible at the call site.
//
// The queue does three things with a closure: builds it in its slot
// (emplace), runs it once (run) or drops it on cancel (drop). One
// trampoline per closure type does the last two: it runs and destroys the
// closure, or only destroys it. Slots never move, so there is no
// relocation.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mpr::sim {

/// Inline capacity of an event action. Every closure scheduled anywhere in
/// the simulator must fit (checked at compile time). 64 bytes = 8 pointers,
/// comfortably above the largest real capture (this + a pooled packet
/// handle + a couple of words).
inline constexpr std::size_t kEventActionCapacity = 64;

class ActionSlot {
 public:
  ActionSlot() = default;
  ActionSlot(const ActionSlot&) = delete;
  ActionSlot& operator=(const ActionSlot&) = delete;
  ~ActionSlot() { drop(); }

  /// Builds the closure `f` directly in this empty slot.
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kEventActionCapacity,
                  "closure exceeds the event action's inline capacity; shrink the capture or "
                  "box the state behind a pointer (the allocation must be explicit, not hidden)");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "closure is over-aligned for the event action's storage");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    op_ = &trampoline<Fn>;
  }

  /// Runs the closure and destroys it, leaving the slot empty. A closure
  /// that throws is left in place, so drop() or the destructor destroys it,
  /// once.
  void run() {
    op_(storage_, /*invoke=*/true);
    op_ = nullptr;
  }

  /// Destroys the closure without running it; an empty slot stays empty.
  void drop() {
    if (op_ != nullptr) {
      op_(storage_, /*invoke=*/false);
      op_ = nullptr;
    }
  }

 private:
  template <typename F>
  static void trampoline(void* storage, bool invoke) {
    F& f = *std::launder(static_cast<F*>(storage));
    if (invoke) f();
    f.~F();
  }

  alignas(std::max_align_t) unsigned char storage_[kEventActionCapacity];
  void (*op_)(void*, bool){nullptr};
};

}  // namespace mpr::sim
