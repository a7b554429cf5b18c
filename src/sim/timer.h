// A component's handle on its one pending event: a protocol timer (RTO,
// delayed ACK, join retry, dead-path deadline, ...).
//
// Arming cancels the event still pending, the event forgets itself before
// its closure runs (so the closure may re-arm the timer, or destroy it),
// and destroying the timer cancels it. Each arm is one EventQueue
// schedule_at and each cancel of a pending event one EventQueue::cancel,
// so holding a Timer instead of an EventId moves no event's (time, seq).
// Pinned: the scheduled event points back at the timer.
#pragma once

#include <algorithm>
#include <utility>

#include "sim/simulation.h"

namespace mpr::sim {

class Timer {
 public:
  explicit Timer(Simulation& sim) : events_{sim.events()} {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { cancel(); }

  /// (Re-)arms the timer to run the void() closure `fn` at `when`.
  template <typename F>
  void arm_at(TimePoint when, F&& fn) {
    cancel();
    id_ = events_.schedule_at(when, [this, fn = std::forward<F>(fn)]() mutable {
      id_ = kInvalidEventId;
      fn();
    });
  }

  /// (Re-)arms the timer to run `fn` after `delay` (clamped to >= 0).
  template <typename F>
  void arm_after(Duration delay, F&& fn) {
    arm_at(events_.now() + std::max(delay, Duration::zero()), std::forward<F>(fn));
  }

  /// Cancels the pending event, if any.
  void cancel() {
    if (id_ != kInvalidEventId) {
      events_.cancel(id_);
      id_ = kInvalidEventId;
    }
  }

  [[nodiscard]] bool armed() const { return id_ != kInvalidEventId; }

 private:
  EventQueue& events_;
  EventId id_{kInvalidEventId};
};

}  // namespace mpr::sim
