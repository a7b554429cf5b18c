// Queue disciplines for links.
//
// DropTailQueue is the default and models the deep dumb buffers behind the
// paper's cellular bufferbloat findings (§5.1). CodelQueue implements the
// CoDel AQM (Nichols & Jacobson; RFC 8289) as the counterfactual: what the
// same radio links would look like with modern queue management — used by
// the extension bench.
//
// Queues hold owning PacketPtr handles: admitting, dequeuing and AQM-dropping
// a packet moves an 8-byte handle, never a Packet. A drop simply lets the
// handle destruct, recycling the packet into the simulation's pool.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>

#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/flat_vec.h"
#include "sim/time.h"

namespace mpr::net {

/// A FIFO with a byte cap that always admits at least one packet; a
/// discipline decides only what dequeue hands out.
class QueueDiscipline {
 public:
  explicit QueueDiscipline(std::uint64_t capacity_bytes) : capacity_{capacity_bytes} {}
  virtual ~QueueDiscipline() = default;

  /// Offers a packet. Returns false if dropped at enqueue (queue full) —
  /// the rejected packet is recycled; the drop hook fires for every dropped
  /// packet, at enqueue or inside dequeue (AQM).
  bool enqueue(PacketPtr p, sim::TimePoint now);

  /// Next packet to transmit, or an empty handle when the queue is empty.
  /// AQM disciplines may drop packets internally here; those are reported
  /// via the drop hook.
  virtual PacketPtr dequeue(sim::TimePoint now) = 0;

  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] std::size_t packets() const { return queue_.size(); }

  /// Invoked for every packet the discipline drops after admission.
  void set_drop_hook(std::function<void(const Packet&)> hook) { drop_hook_ = std::move(hook); }

 protected:
  /// Removes the head packet, or returns an empty handle when empty.
  PacketPtr pop();
  void report_drop(const Packet& p) {
    if (drop_hook_) drop_hook_(p);
  }

 private:
  std::uint64_t capacity_;
  std::uint64_t bytes_{0};
  // FlatRing, not std::deque: a deque frees its map blocks inside pop_front,
  // putting operator delete in dequeue's emitted code (see sim/flat_vec.h).
  sim::FlatRing<PacketPtr> queue_;
  std::function<void(const Packet&)> drop_hook_;
};

/// Plain FIFO: hands out the head packet.
class DropTailQueue final : public QueueDiscipline {
 public:
  using QueueDiscipline::QueueDiscipline;

  PacketPtr dequeue(sim::TimePoint now) override;
};

/// CoDel (RFC 8289): drops at dequeue when the standing (sojourn) delay has
/// exceeded `kTarget` for at least `kInterval`, with the sqrt control law.
/// A byte cap still bounds worst-case memory.
class CodelQueue final : public QueueDiscipline {
 public:
  /// RFC 8289's recommended target and interval for the open Internet.
  static constexpr sim::Duration kTarget = sim::Duration::millis(5);
  static constexpr sim::Duration kInterval = sim::Duration::millis(100);
  /// At most one MTU queued never counts as a standing queue.
  static constexpr std::uint32_t kMtuBytes = 1540;

  using QueueDiscipline::QueueDiscipline;

  PacketPtr dequeue(sim::TimePoint now) override;
  [[nodiscard]] std::uint64_t codel_drops() const { return codel_drops_; }

 private:
  struct Front {
    PacketPtr packet;  // empty handle <=> queue was empty
    bool ok_to_drop{false};
  };
  Front do_dequeue(sim::TimePoint now);
  [[nodiscard]] sim::TimePoint control_law(sim::TimePoint t) const {
    return t + kInterval * (1.0 / std::sqrt(static_cast<double>(count_)));
  }

  sim::TimePoint first_above_time_{};
  bool has_first_above_{false};
  bool dropping_{false};
  sim::TimePoint drop_next_{};
  std::uint32_t count_{0};
  std::uint64_t codel_drops_{0};
};

}  // namespace mpr::net
