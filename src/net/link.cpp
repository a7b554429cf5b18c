#include "net/link.h"

#include <cassert>
#include <utility>

namespace mpr::net {

Link::Link(sim::Simulation& sim, Config config, DeliverFn deliver)
    : sim_{sim}, config_{std::move(config)}, deliver_{std::move(deliver)} {
  assert(deliver_);
  assert(config_.rate_bps > 0);
  set_queue_discipline(std::make_unique<DropTailQueue>(config_.queue_capacity_bytes));
}

void Link::set_queue_discipline(std::unique_ptr<QueueDiscipline> q) {
  assert(q != nullptr);
  queue_ = std::move(q);
  // In-queue drops (AQM) count as queue drops alongside enqueue rejections.
  queue_->set_drop_hook([this](const Packet& p) {
    ++stats_.packets_dropped_queue;
    if (drop_observer_) drop_observer_(p);
  });
}

void Link::send(PacketPtr p) {
  if (ingress_) {
    ingress_(std::move(p));
    return;
  }
  send_direct(std::move(p));
}

void Link::send_direct(PacketPtr p) {
  ++stats_.packets_offered;
  // The discipline's drop hook accounts for rejected packets.
  if (queue_->enqueue(std::move(p), sim_.now())) maybe_start_service();
}

void Link::maybe_start_service() {
  if (serving_) return;
  PacketPtr p = queue_->dequeue(sim_.now());
  if (!p) return;
  serving_ = true;

  const sim::TimePoint now = sim_.now();
  const sim::TimePoint start = gate_fn_ ? std::max(now, gate_fn_(now)) : now;
  const double rate = rate_fn_ ? rate_fn_() : config_.rate_bps;
  const double tx_seconds = static_cast<double>(p->wire_bytes()) * 8.0 / std::max(rate, 1.0);
  const sim::TimePoint done = start + sim::Duration::from_seconds(tx_seconds);

  // 16-byte capture (this + pooled handle): fits the inline event action.
  sim_.at(done, [this, pkt = std::move(p)]() mutable { finish_service(std::move(pkt)); });
}

void Link::finish_service(PacketPtr p) {
  serving_ = false;
  const bool dropped = loss_->should_drop();
  if (dropped) {
    ++stats_.packets_dropped_wire;
    if (drop_observer_) drop_observer_(*p);
    p.reset();  // recycle before the next service starts
  } else {
    sim::Duration extra = extra_delay_fn_ ? extra_delay_fn_() : sim::Duration::zero();
    if (extra < sim::Duration::zero()) extra = sim::Duration::zero();
    sim::TimePoint deliver_at = sim_.now() + config_.prop_delay + extra;
    // In-order delivery: a stalled packet blocks everything behind it.
    if (deliver_at < last_delivery_) deliver_at = last_delivery_;
    last_delivery_ = deliver_at;
    ++stats_.packets_delivered;
    stats_.bytes_delivered += p->wire_bytes();
    if (p->cross_traffic) {
      // Cross-traffic has no receiver. Its airtime, loss and delay draws
      // and the FIFO floor it just set are all it does to real packets, so
      // it ends here rather than as a delivery event.
      p.reset();
    } else {
      // The seq is drawn here, where scheduling the delivery now would
      // draw it; the event itself is filed once the packet heads the lane.
      lane_.push_back(InFlight{deliver_at, sim_.events().reserve_seq(), std::move(p)});
      if (lane_.size() == 1) file_lane_head();
    }
  }
  maybe_start_service();
}

void Link::file_lane_head() {
  const InFlight& head = lane_.front();
  sim_.events().schedule_reserved(head.deliver_at, head.seq, [this] { deliver_lane_head(); });
}

// The next head is filed before the packet is handed on: its (time, seq)
// is above this event's, and the lane is whole again if delivering sends.
void Link::deliver_lane_head() {
  PacketPtr p = lane_.pop_front().packet;
  if (!lane_.empty()) file_lane_head();
  deliver_(std::move(p));
}

}  // namespace mpr::net
