// Per-simulation packet pool and owning packet handle.
//
// Every packet hop used to copy a ~200-byte Packet (plus a heap-backed SACK
// vector) by value through queues and std::function captures. With the pool,
// the sender acquires a recycled Packet, every layer moves the 8-byte
// PacketPtr handle, and the sink's handle destructor returns the object to
// the freelist.
//
// Ownership: one pool per Simulation, obtained with
// `sim.service<net::PacketPool>()`. The service registry destroys the pool
// after the event queue, so actions still holding packet handles at teardown
// release safely. The parallel campaign runner gives each run its own
// Simulation, hence its own pool — nothing here is (or needs to be)
// thread-safe, and recycling order is fully deterministic.
//
// Packet storage outlives the pool on its thread: a pool torn down with
// every packet back hands its storage to a per-thread spare, and the next
// pool built on that thread adopts it. A campaign worker's runs therefore
// heap-allocate packets only past the largest high-water mark the thread
// has seen, not ~100 per run. The spare holds at most the storage of the
// largest pool it took back (650 packets, 166 KB, on perfbench `population`)
// and is freed when its thread exits. Which physical packet an acquire
// returns never shows: reset_fields() makes a recycled packet equal a
// fresh one.
//
// Telemetry: the pool counts heap allocations, acquires served without one
// and the high-water mark of this pool's run alone; a campaign exports them
// per run through sim::SimStats and process-wide through the static totals
// the bench [perf] trailer prints.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "check/audit.h"
#include "net/packet.h"
#include "sim/flat_vec.h"

namespace mpr::net {

class PacketPool;

/// Move-only owning handle to a pooled Packet. 8 bytes, so closures that
/// carry a packet through the event queue stay within the inline-action
/// budget. Destruction (or reset) recycles the packet into its pool.
class PacketPtr {
 public:
  PacketPtr() = default;
  PacketPtr(PacketPtr&& other) noexcept : p_{std::exchange(other.p_, nullptr)} {}
  PacketPtr& operator=(PacketPtr&& other) noexcept {
    if (this != &other) {
      reset();
      p_ = std::exchange(other.p_, nullptr);
    }
    return *this;
  }
  PacketPtr(const PacketPtr&) = delete;
  PacketPtr& operator=(const PacketPtr&) = delete;
  ~PacketPtr() { reset(); }

  [[nodiscard]] explicit operator bool() const { return p_ != nullptr; }
  [[nodiscard]] Packet& operator*() const {
    assert(p_ != nullptr);
    return *p_;
  }
  [[nodiscard]] Packet* operator->() const {
    assert(p_ != nullptr);
    return p_;
  }
  [[nodiscard]] Packet* get() const { return p_; }

  /// Recycles the packet now (no-op on an empty handle).
  inline void reset();

 private:
  friend class PacketPool;
  explicit PacketPtr(Packet* p) : p_{p} {}

  Packet* p_{nullptr};
};

class PacketPool {
 public:
  struct Stats {
    /// Heap allocations (pool misses): acquires that found neither a
    /// recycled nor an adopted packet and grew the population.
    std::uint64_t allocs{0};
    /// Acquires served without heap traffic: from the freelist, or from the
    /// storage adopted from the thread's previous pool.
    std::uint64_t reuses{0};
    /// Maximum packets simultaneously outstanding in this pool's run.
    std::uint64_t high_water{0};
    /// Packets currently held by live PacketPtr handles.
    std::uint64_t outstanding{0};
    /// Resident bytes of pooled Packet storage, adopted packets included.
    std::uint64_t bytes{0};
  };

  /// Adopts the storage the thread's previous pool handed back, if any.
  PacketPool();
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;
  /// Hands the storage on to the thread's next pool when every packet is
  /// back; frees it otherwise.
  ~PacketPool();

  /// A fresh (field-reset) packet, recycled when possible. The miss path
  /// lives out of line in grow_and_acquire() so callers' emitted code stays
  /// allocation-free (it runs once per high-water packet, not per hop).
  [[nodiscard]] PacketPtr acquire() {
    Packet* p;
    if (!free_.empty()) {
      p = free_.back();
      free_.pop_back();
      p->reset_fields();
      ++stats_reuses_;
    } else {
      p = grow_and_acquire();
    }
#if MPR_AUDIT
    ledger_.on_acquire(p);
#endif
    return PacketPtr{p};
  }

  /// Returns `p` to the freelist. Called by PacketPtr; `p` must have been
  /// acquired from this pool and not already released. The append is
  /// branch-free: free_'s capacity is kept at least the storage size, and a
  /// packet can be in the freelist at most once.
  void release(Packet* p) {
    assert(p != nullptr && p->origin_pool == this);
#if MPR_AUDIT
    ledger_.on_release(p);  // throws on double-release before the freelist is corrupted
#endif
    free_.push_back_unchecked(p);
  }

  [[nodiscard]] Stats stats() const {
    return Stats{stats_allocs_, stats_reuses_, drawn_, drawn_ - free_.size(),
                 storage_.size() * sizeof(Packet)};
  }

  /// Process-wide totals over every pool already destroyed plus none of the
  /// live ones — mirrors EventQueue::total_executed() for the bench trailer
  /// (each campaign run tears its pool down with its Simulation).
  [[nodiscard]] static std::uint64_t total_allocs() {
    return total_allocs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] static std::uint64_t total_reuses() {
    return total_reuses_.load(std::memory_order_relaxed);
  }

 private:
  // Draws the next packet this run has not used yet: an adopted one, else a
  // new one. Out of line and cold: this is the only allocation behind
  // acquire()/release().
  [[gnu::noinline, gnu::cold]] Packet* grow_and_acquire();

  // Stable addresses. storage_[0, drawn_) have been handed out this run
  // (each is outstanding or in free_); the rest are adopted and unused.
  std::vector<std::unique_ptr<Packet>> storage_;
  sim::FlatVec<Packet*> free_;  // capacity invariant: >= storage_.size()
  std::uint64_t drawn_{0};  // the high-water mark: drawn only when free_ is empty
  std::uint64_t stats_allocs_{0};
  std::uint64_t stats_reuses_{0};

#if MPR_AUDIT
  check::PoolLedger ledger_;
#endif

  static std::atomic<std::uint64_t> total_allocs_;
  static std::atomic<std::uint64_t> total_reuses_;
};

inline void PacketPtr::reset() {
  if (p_ != nullptr) {
    p_->origin_pool->release(p_);
    p_ = nullptr;
  }
}

}  // namespace mpr::net
