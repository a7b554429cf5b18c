// Simulation context: the event queue plus the seed sequence every
// stochastic component derives its stream from. One Simulation per run.
//
// The Simulation also owns run-scoped *services* — per-run singletons such
// as the net::PacketPool — through a small type-erased registry. Services
// are declared before the event queue so they are destroyed after it:
// queued actions may hold pooled resources (packet handles) that must be
// able to release into their pool during queue teardown. Ownership per
// Simulation is also what keeps the parallel campaign runner share-nothing:
// every MPR_JOBS worker runs its own Simulation, so no pool or counter is
// ever touched from two threads.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <typeindex>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/time.h"

namespace mpr::sim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1) : seeds_{seed} {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  [[nodiscard]] EventQueue& events() { return events_; }
  [[nodiscard]] TimePoint now() const { return events_.now(); }
  [[nodiscard]] const SeedSequence& seeds() const { return seeds_; }

  /// Fresh deterministic stream for the named component.
  [[nodiscard]] Rng rng(std::string_view name) const { return seeds_.stream(name); }

  /// Run-scoped singleton of type T (default-constructed on first use).
  /// Services outlive the event queue, so scheduled actions may own
  /// service-backed resources at teardown.
  template <typename T>
  [[nodiscard]] T& service() {
    if (T* existing = find_service<T>()) return *existing;
    services_.emplace_back(std::type_index{typeid(T)},
                           ServicePtr{new T(), [](void* p) { delete static_cast<T*>(p); }});
    return *static_cast<T*>(services_.back().second.get());
  }

  /// The service of type T if one has been created, else nullptr.
  template <typename T>
  [[nodiscard]] T* find_service() const {
    const std::type_index key{typeid(T)};
    for (const auto& [tag, ptr] : services_) {
      if (tag == key) return static_cast<T*>(ptr.get());
    }
    return nullptr;
  }

  EventId at(TimePoint when, EventQueue::Action a) { return events_.schedule_at(when, std::move(a)); }
  EventId after(Duration d, EventQueue::Action a) { return events_.schedule_after(d, std::move(a)); }
  bool cancel(EventId id) { return events_.cancel(id); }

  void run() { events_.run(); }
  void run_until(TimePoint t) { events_.run_until(t); }
  void run_for(Duration d) { events_.run_until(now() + d); }

  /// The driver loop: before each event, tests `keep_going()`, then runs
  /// the next event if it is due at or before `deadline`; returns when the
  /// predicate refuses, the queue drains, or the next event lies past the
  /// deadline. Same rule as run_until: events at `deadline` run, the first
  /// one after it does not, so what a cut run did depends only on events
  /// inside the cap. The clock is left at the last event that ran.
  template <typename Pred>
  void run_while(Pred&& keep_going, TimePoint deadline = TimePoint::max()) {
    while (keep_going() && events_.step(deadline)) {
    }
  }

 private:
  using ServicePtr = std::unique_ptr<void, void (*)(void*)>;
  // Declared before events_: services must outlive queued actions (see top).
  std::vector<std::pair<std::type_index, ServicePtr>> services_;
  EventQueue events_;
  SeedSequence seeds_;
};

}  // namespace mpr::sim
