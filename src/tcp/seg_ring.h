// The sequence-keyed store of the TCP and MPTCP data paths.
//
// Four stores on the per-packet path hold records sorted by a 64-bit
// sequence number, appended at the back, retired from the front and found
// by binary search: the sender's retransmission state (TcpEndpoint::
// unacked_), the receiver's out-of-order queue (TcpEndpoint::ooo_), the
// connection's reinjection ledger (MptcpConnection::reinjected_dsns_) and
// the connection-level reorder buffer (ReorderBuffer::held_). SegRing is
// that shape, once, over a sim::FlatDeque of {seq, val} records:
//
//   push_back    append past the back (the send window grows at snd_nxt)
//   insert       binary-search placement that keeps a record already at
//                that seq; an append when seq is past the back, otherwise
//                a shift of the records behind it
//   pop_front    retire the oldest record, amortized O(1) (FlatDeque's
//                lazy compaction: one memmove per window's worth of pops)
//   erase_below  retire every record below a seq (cumulative-ack sweep)
//   find / contains / lower_bound   binary search; a seq past the back
//                answers without one, since most arrivals extend the store
//
// In-order scans (SACK marking, loss marking, SACK-block generation) walk
// contiguous memory through at(i). Growth is FlatVec's out-of-line cold
// grow(), so inlining any operation into an audited hot function never
// inlines an allocation. Growth and a front pop's compaction move records:
// a reference from at()/front() or a pointer from find() is valid only
// until the next change to the same store.
//
// The name dates from when the sender's store was a power-of-two ring.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>

#include "sim/flat_vec.h"

namespace mpr::tcp {

template <typename T>
class SegRing {
 public:
  struct Rec {
    std::uint64_t seq{0};
    T val{};
  };

  [[nodiscard]] bool empty() const { return recs_.empty(); }
  [[nodiscard]] std::size_t size() const { return recs_.size(); }

  /// i-th record in sequence order (0 = lowest seq).
  [[nodiscard]] Rec& at(std::size_t i) { return recs_[i]; }
  [[nodiscard]] const Rec& at(std::size_t i) const { return recs_[i]; }

  [[nodiscard]] Rec& front() { return recs_.front(); }
  [[nodiscard]] const Rec& front() const { return recs_.front(); }
  [[nodiscard]] const Rec& back() const { return recs_.back(); }

  /// Appends a record; `seq` must be above every stored seq.
  void push_back(std::uint64_t seq, const T& val) {
    assert(empty() || seq > back().seq);
    recs_.push_back(Rec{seq, val});
  }

  /// Inserts (seq -> val) in order. Keeps the record already at `seq`, if
  /// any, like std::map::emplace; returns whether `val` was stored.
  bool insert(std::uint64_t seq, const T& val) {
    const std::size_t i = lower_bound(seq);
    if (i < size() && at(i).seq == seq) return false;
    recs_.insert(recs_.begin() + i, Rec{seq, val});
    return true;
  }

  /// Retires the oldest record.
  void pop_front() { recs_.pop_front(); }

  /// Retires every record with rec.seq < seq.
  void erase_below(std::uint64_t seq) { recs_.pop_front(lower_bound(seq)); }

  /// Index of the first record with rec.seq >= seq (== size() if none).
  [[nodiscard]] std::size_t lower_bound(std::uint64_t seq) const {
    if (empty() || back().seq < seq) return size();
    const Rec* it = std::lower_bound(recs_.begin(), recs_.end(), seq,
                                     [](const Rec& r, std::uint64_t s) { return r.seq < s; });
    return static_cast<std::size_t>(it - recs_.begin());
  }

  /// Value stored at exactly `seq`; nullptr if absent.
  [[nodiscard]] T* find(std::uint64_t seq) {
    const std::size_t i = lower_bound(seq);
    if (i == size() || at(i).seq != seq) return nullptr;
    return &at(i).val;
  }

  [[nodiscard]] bool contains(std::uint64_t seq) const {
    const std::size_t i = lower_bound(seq);
    return i < size() && at(i).seq == seq;
  }

 private:
  sim::FlatDeque<Rec> recs_;  // Rec must be trivially copyable (FlatDeque's contract)
};

}  // namespace mpr::tcp
