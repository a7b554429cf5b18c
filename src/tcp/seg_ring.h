// Flat sequence-indexed segment containers for the TCP hot path.
//
// The sender's retransmission state used to live in a
// std::map<uint64_t, SegInfo> — one red-black node allocated per sent
// segment, pointer-chasing on every ACK, SACK mark and loss scan. But the
// send window is *contiguous*: segments are appended strictly in sequence
// order at snd_nxt and retired strictly from the front by cumulative ACKs.
// That access pattern is a ring buffer, not a tree:
//
//   SegRing    append O(1), pop-front O(1), exact find / lower_bound
//              O(log n) by binary search over the (sorted by construction)
//              ring, in-order scan is a linear walk over contiguous memory.
//
// Invariants (checked with asserts):
//   * records are strictly increasing in seq (push_back requires it),
//   * pops only happen at the front (cumulative-ACK advance),
//   * the ring never allocates in steady state — capacity doubles on
//     overflow and is retained for the life of the endpoint.
//
// The receiver's out-of-order store has a different shape (sparse inserts,
// front-biased erases, tiny population bounded by the window), so it gets a
// sorted flat vector instead:
//
//   SeqFlatMap  sorted sim::FlatVec keyed by seq; insert shifts the tail
//               (cheap at these sizes), lookup is binary search, in-order
//               iteration — which feeds SACK-block generation — is linear.
//               Growth is FlatVec's out-of-line cold grow(), so inlining
//               insert into the receive path never inlines an allocation.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/flat_vec.h"

namespace mpr::tcp {

template <typename T>
class SegRing {
 public:
  struct Rec {
    std::uint64_t seq{0};
    T val{};
  };

  [[nodiscard]] bool empty() const { return count_ == 0; }
  [[nodiscard]] std::size_t size() const { return count_; }

  /// i-th record in sequence order (0 = oldest unacked).
  [[nodiscard]] Rec& at(std::size_t i) {
    assert(i < count_);
    return buf_[(head_ + i) & mask()];
  }
  [[nodiscard]] const Rec& at(std::size_t i) const {
    assert(i < count_);
    return buf_[(head_ + i) & mask()];
  }

  [[nodiscard]] Rec& front() { return at(0); }
  [[nodiscard]] const Rec& front() const { return at(0); }
  [[nodiscard]] Rec& back() { return at(count_ - 1); }

  /// Appends a record; `seq` must extend the ring (send window contiguity).
  void push_back(std::uint64_t seq, T val) {
    assert(count_ == 0 || seq > back().seq);
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & mask()] = Rec{seq, std::move(val)};
    ++count_;
  }

  /// Retires the oldest record (cumulative-ACK advance).
  void pop_front() {
    assert(count_ > 0);
    buf_[head_].val = T{};  // drop payload state (e.g. options) eagerly
    head_ = (head_ + 1) & mask();
    --count_;
  }

  void clear() {
    while (count_ > 0) pop_front();
  }

  /// Index of the first record with rec.seq >= seq (== size() if none).
  [[nodiscard]] std::size_t lower_bound(std::uint64_t seq) const {
    std::size_t lo = 0;
    std::size_t hi = count_;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (at(mid).seq < seq) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Exact-seq lookup; nullptr if no segment starts at `seq`.
  [[nodiscard]] T* find(std::uint64_t seq) {
    const std::size_t i = lower_bound(seq);
    if (i == count_ || at(i).seq != seq) return nullptr;
    return &at(i).val;
  }

 private:
  [[nodiscard]] std::size_t mask() const { return buf_.size() - 1; }

  // The ring's only allocation, out of line and cold (as FlatVec::grow):
  // push_back inlines into the send path, and the growth must not.
  [[gnu::noinline, gnu::cold]] void grow() {
    const std::size_t cap = buf_.empty() ? kInitialCapacity : buf_.size() * 2;
    std::vector<Rec> next(cap);
    for (std::size_t i = 0; i < count_; ++i) next[i] = std::move(at(i));
    buf_ = std::move(next);
    head_ = 0;
  }

  static constexpr std::size_t kInitialCapacity = 64;  // power of two

  std::vector<Rec> buf_;
  std::size_t head_{0};
  std::size_t count_{0};
};

template <typename T>
class SeqFlatMap {
 public:
  struct Rec {
    std::uint64_t seq{0};
    T val{};
  };

  [[nodiscard]] bool empty() const { return v_.empty(); }
  [[nodiscard]] std::size_t size() const { return v_.size(); }

  [[nodiscard]] Rec& at(std::size_t i) { return v_[i]; }
  [[nodiscard]] const Rec& at(std::size_t i) const { return v_[i]; }
  [[nodiscard]] Rec& front() { return v_.front(); }

  [[nodiscard]] bool contains(std::uint64_t seq) const {
    const std::size_t i = lower_bound(seq);
    return i < v_.size() && v_[i].seq == seq;
  }

  /// Inserts (seq -> val); keeps existing entry if `seq` is already present.
  void insert(std::uint64_t seq, T val) {
    const std::size_t i = lower_bound(seq);
    if (i < v_.size() && v_[i].seq == seq) return;
    v_.insert_at(i, Rec{seq, std::move(val)});
  }

  /// Removes the i-th record in sequence order.
  void erase_at(std::size_t i) {
    assert(i < v_.size());
    v_.erase(i, i + 1);
  }

  /// Value stored at exactly `seq`; nullptr if absent.
  [[nodiscard]] T* find(std::uint64_t seq) {
    const std::size_t i = lower_bound(seq);
    if (i == v_.size() || v_[i].seq != seq) return nullptr;
    return &v_[i].val;
  }

  /// Removes every record with rec.seq < seq (cumulative-ack sweep). A
  /// shift of the surviving tail — no node frees, unlike a tree erase.
  void erase_below(std::uint64_t seq) { v_.erase(0, lower_bound(seq)); }

  [[nodiscard]] std::size_t lower_bound(std::uint64_t seq) const {
    std::size_t lo = 0;
    std::size_t hi = v_.size();
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (v_[mid].seq < seq) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  sim::FlatVec<Rec> v_;  // Rec must be trivially copyable (FlatVec's contract)
};

}  // namespace mpr::tcp
