// Move-only callable with fixed inline storage and no heap fallback.
//
// std::function heap-allocates any closure larger than its tiny SBO buffer
// (two pointers on libstdc++), which put an allocation on every packet hop:
// Link and Network capture an owning packet handle into each scheduled
// event. InlineFunction<void(), 64> gives every event action 64 bytes of
// in-object storage and *refuses to compile* a larger capture, so the event
// hot path can never silently regress back to the heap. Captures that
// genuinely need more state must box it explicitly (e.g. capture a
// unique_ptr/shared_ptr) — making the allocation visible at the call site.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace mpr::sim {

template <typename Signature, std::size_t Capacity>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFunction> &&
                                        !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFunction> &&
                                        !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  InlineFunction& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  [[nodiscard]] explicit operator bool() const { return ops_ != nullptr; }
  friend bool operator==(const InlineFunction& f, std::nullptr_t) { return f.ops_ == nullptr; }

  R operator()(Args... args) { return ops_->invoke(storage_, std::forward<Args>(args)...); }

  /// Invokes the closure and destroys it, leaving this empty: one indirect
  /// call where operator() and reset() make two. A closure that throws is
  /// left in place, so reset() or the destructor destroys it, once.
  R call_once(Args... args) {
    if constexpr (std::is_void_v<R>) {
      ops_->call_once(storage_, std::forward<Args>(args)...);
      ops_ = nullptr;
    } else {
      R r = ops_->call_once(storage_, std::forward<Args>(args)...);
      ops_ = nullptr;
      return r;
    }
  }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  static constexpr std::size_t capacity() { return Capacity; }

  /// Builds the closure `f` directly in this empty function's storage, with
  /// no relocation through a temporary (the event queue's slots).
  template <typename F>
  void emplace(F&& f) {
    assert(ops_ == nullptr);
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "closure exceeds InlineFunction inline capacity; shrink the capture or box "
                  "the state behind a pointer (the allocation must be explicit, not hidden)");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "closure is over-aligned for InlineFunction storage");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "InlineFunction requires nothrow-movable closures (move construction and "
                  "assignment relocate them)");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::ops;
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    R (*call_once)(void*, Args&&...);        // invoke, then destroy
    void (*relocate)(void* dst, void* src);  // move-construct into dst, destroy src
    void (*destroy)(void*);
  };

  template <typename F>
  struct OpsFor {
    static F* as(void* s) { return std::launder(reinterpret_cast<F*>(s)); }
    static R invoke(void* s, Args&&... args) { return (*as(s))(std::forward<Args>(args)...); }
    static R call_once(void* s, Args&&... args) {
      F& f = *as(s);
      if constexpr (std::is_void_v<R>) {
        f(std::forward<Args>(args)...);
        f.~F();
      } else {
        R r = f(std::forward<Args>(args)...);
        f.~F();
        return r;
      }
    }
    static void relocate(void* dst, void* src) {
      ::new (dst) F(std::move(*as(src)));
      as(src)->~F();
    }
    static void destroy(void* s) { as(s)->~F(); }
    static constexpr Ops ops{&invoke, &call_once, &relocate, &destroy};
  };

  void move_from(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[Capacity];
  const Ops* ops_{nullptr};
};

}  // namespace mpr::sim
