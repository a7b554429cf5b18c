#include "net/queue.h"

#include <utility>

namespace mpr::net {

bool QueueDiscipline::enqueue(PacketPtr p, sim::TimePoint now) {
  const std::uint64_t wire = p->wire_bytes();
  if (bytes_ + wire > capacity_ && !queue_.empty()) {
    report_drop(*p);  // handle destructs at return: packet recycled
    return false;
  }
  p->enqueue_time = now;
  bytes_ += wire;
  queue_.push_back(std::move(p));
  return true;
}

PacketPtr QueueDiscipline::pop() {
  if (queue_.empty()) return PacketPtr{};
  PacketPtr p = queue_.pop_front();
  bytes_ -= p->wire_bytes();
  return p;
}

PacketPtr DropTailQueue::dequeue(sim::TimePoint /*now*/) { return pop(); }

// ---------------------------------------------------------------------------
// CodelQueue.

CodelQueue::Front CodelQueue::do_dequeue(sim::TimePoint now) {
  Front f;
  PacketPtr p = pop();
  if (!p) {
    has_first_above_ = false;
    return f;
  }

  const sim::Duration sojourn = now - p->enqueue_time;
  if (sojourn < kTarget || bytes() <= kMtuBytes) {
    // Out of the "standing queue" regime.
    has_first_above_ = false;
  } else if (!has_first_above_) {
    has_first_above_ = true;
    first_above_time_ = now + kInterval;
  } else if (now >= first_above_time_) {
    f.ok_to_drop = true;
  }
  f.packet = std::move(p);
  return f;
}

PacketPtr CodelQueue::dequeue(sim::TimePoint now) {
  Front f = do_dequeue(now);
  if (!f.packet) {
    dropping_ = false;
    return PacketPtr{};
  }

  if (dropping_) {
    if (!f.ok_to_drop) {
      dropping_ = false;
    } else {
      while (dropping_ && now >= drop_next_) {
        report_drop(*f.packet);
        ++codel_drops_;
        ++count_;
        f = do_dequeue(now);  // previous front recycled by the assignment
        if (!f.packet) {
          dropping_ = false;
          return PacketPtr{};
        }
        if (!f.ok_to_drop) {
          dropping_ = false;
        } else {
          drop_next_ = control_law(drop_next_);
        }
      }
    }
  } else if (f.ok_to_drop) {
    report_drop(*f.packet);
    ++codel_drops_;
    f = do_dequeue(now);
    dropping_ = true;
    // Restart the control law near where it left off if we were recently
    // dropping (RFC 8289 §5.4).
    if (count_ > 2 && now - drop_next_ < kInterval * 8.0) {
      count_ -= 2;
    } else {
      count_ = 1;
    }
    drop_next_ = control_law(now);
    if (!f.packet) return PacketPtr{};
  }
  return std::move(f.packet);
}

}  // namespace mpr::net
