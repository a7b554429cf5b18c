#include "net/packet_pool.h"

namespace mpr::net {

std::atomic<std::uint64_t> PacketPool::total_allocs_{0};
std::atomic<std::uint64_t> PacketPool::total_reuses_{0};

namespace {

// What the thread's last pool handed back: its packets and its freelist's
// buffer, so the next pool on the thread neither allocates packets below
// that pool's high water nor regrows its freelist.
struct Spare {
  std::vector<std::unique_ptr<Packet>> storage;
  sim::FlatVec<Packet*> free;
};
thread_local Spare t_spare;

}  // namespace

PacketPool::PacketPool() : storage_{std::move(t_spare.storage)}, free_{std::move(t_spare.free)} {
  t_spare.storage.clear();  // a moved-from vector is valid but unspecified
}

PacketPool::~PacketPool() {
#if MPR_AUDIT
  ledger_.on_teardown();  // leak check; reports without throwing
#endif
  total_allocs_.fetch_add(stats_allocs_, std::memory_order_relaxed);
  total_reuses_.fetch_add(stats_reuses_, std::memory_order_relaxed);
  // A packet still out is referenced by a handle that outlives the pool;
  // handing it to another pool would let that handle release it there. If
  // two pools on the thread finish, the spare keeps the larger storage.
  if (drawn_ != free_.size() || storage_.size() <= t_spare.storage.size()) return;
  free_.clear();
  t_spare.storage = std::move(storage_);
  t_spare.free = std::move(free_);
}

Packet* PacketPool::grow_and_acquire() {
  Packet* p;
  if (drawn_ < storage_.size()) {
    p = storage_[drawn_].get();
    p->reset_fields();
    ++stats_reuses_;
  } else {
    storage_.push_back(std::make_unique<Packet>());
    // Keep release()'s unchecked append safe: every pooled packet can sit
    // in the freelist at most once, so capacity >= population suffices.
    free_.reserve(storage_.size());
    p = storage_.back().get();
    ++stats_allocs_;
  }
  p->origin_pool = this;
  ++drawn_;
  return p;
}

}  // namespace mpr::net
