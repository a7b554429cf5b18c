#include "core/reorder_buffer.h"

#include <algorithm>

#include "check/audit.h"

namespace mpr::core {

#if MPR_AUDIT
namespace {
// Structural invariants re-checked after every mutation: rcv_nxt never moves
// backwards, held bytes stay within capacity, and the delivered-byte counter
// tracks the in-order edge exactly (both start at DSN 0 and advance in
// lockstep; a divergence means bytes were delivered twice or skipped).
void audit_buffer(std::uint64_t rcv_nxt_before, std::uint64_t rcv_nxt,
                  std::uint64_t buffered, std::uint64_t capacity,
                  std::uint64_t delivered, std::int64_t time_ns) {
  if (rcv_nxt < rcv_nxt_before) {
    check::report({.rule = "rx.monotonic",
                   .detail = "rcv_nxt moved backwards: " +
                             std::to_string(rcv_nxt_before) + " -> " +
                             std::to_string(rcv_nxt),
                   .dsn = rcv_nxt,
                   .time_ns = time_ns});
  }
  if (buffered > capacity) {
    check::report({.rule = "rx.occupancy",
                   .detail = std::to_string(buffered) +
                             " bytes held above capacity " +
                             std::to_string(capacity),
                   .time_ns = time_ns});
  }
  if (delivered != rcv_nxt) {
    check::report({.rule = "rx.accounting",
                   .detail = "delivered_bytes " + std::to_string(delivered) +
                             " != rcv_nxt " + std::to_string(rcv_nxt),
                   .dsn = rcv_nxt,
                   .time_ns = time_ns});
  }
  check::bump_checks();
}
}  // namespace
#endif

bool ReorderBuffer::insert(std::uint64_t dsn, std::uint32_t len, sim::TimePoint arrival,
                           std::uint8_t subflow_id) {
#if MPR_AUDIT
  const std::uint64_t rcv_nxt_before = rcv_nxt_;
  const bool accepted = insert_impl(dsn, len, arrival, subflow_id);
  audit_buffer(rcv_nxt_before, rcv_nxt_, buffered_bytes_, capacity_,
               delivered_bytes_, arrival.ns());
  return accepted;
#else
  return insert_impl(dsn, len, arrival, subflow_id);
#endif
}

bool ReorderBuffer::insert_impl(std::uint64_t dsn, std::uint32_t len, sim::TimePoint arrival,
                                std::uint8_t subflow_id) {
  if (len == 0) return true;
  if (dsn + len <= rcv_nxt_) {
    ++duplicates_;
    return true;
  }

  if (dsn > rcv_nxt_) {
    // Out of order: hold it, unless a segment at this DSN is already held.
    // Every held DSN is above rcv_nxt_, so only this branch can find one.
    // A duplicate counts as one even when the buffer is full.
    if (held_.contains(dsn)) {
      ++duplicates_;
      return true;
    }
    if (buffered_bytes_ + len > capacity_) return false;
    held_.insert(dsn, Held{arrival, len, subflow_id});
    buffered_bytes_ += len;
    max_buffered_ = std::max(max_buffered_, buffered_bytes_);
    return true;
  }

  // Partial overlap with already-delivered data (a reinjection or
  // retransmission straddling rcv_nxt): trim the delivered prefix and
  // process the rest. Without the trim the segment is neither a duplicate
  // nor drainable (held DSNs never match rcv_nxt_) and would occupy buffer
  // bytes forever, shrinking the advertised window.
  if (dsn < rcv_nxt_) {
    const auto overlap = static_cast<std::uint32_t>(rcv_nxt_ - dsn);
    ++duplicates_;  // count the partially-duplicate arrival
    dsn = rcv_nxt_;
    len -= overlap;
  }

  // In-order on arrival: zero out-of-order delay.
  samples_.push_back(OfoSample{sim::Duration::zero(), subflow_id, len});
  delivered_bytes_ += len;
  rcv_nxt_ += len;
  if (on_deliver) on_deliver(dsn, len);
  // Drain anything this unblocked. Held segments may partially overlap
  // what was just delivered (differently-chunked retransmissions); trim
  // the delivered prefix rather than stalling on an inexact match.
  while (!held_.empty() && held_.front().seq <= rcv_nxt_) {
    const std::uint64_t held_dsn = held_.front().seq;
    const Held h = held_.front().val;
    held_.pop_front();
    buffered_bytes_ -= h.len;
    if (held_dsn + h.len <= rcv_nxt_) {
      ++duplicates_;  // fully covered by what was delivered meanwhile
      continue;
    }
    const auto overlap = static_cast<std::uint32_t>(rcv_nxt_ - held_dsn);
    const std::uint32_t fresh = h.len - overlap;
    samples_.push_back(OfoSample{arrival - h.arrival, h.subflow_id, fresh});
    delivered_bytes_ += fresh;
    const std::uint64_t deliver_at = rcv_nxt_;
    rcv_nxt_ += fresh;
    if (on_deliver) on_deliver(deliver_at, fresh);
  }
  return true;
}

}  // namespace mpr::core
