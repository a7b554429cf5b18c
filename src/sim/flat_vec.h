// Growable flat containers whose growth paths live out of line.
//
// The hot-path symbol audit (tools/mpr_analyze.py, pass `hotpath`) checks
// that the *emitted* code of the event-dispatch and packet-path functions
// contains no allocation calls. std::vector/std::deque break that property
// unpredictably: at -O2 the compiler sometimes inlines the whole
// reallocation path — operator new, copy, operator delete — straight into
// push_back's caller, dragging a cold slab of code into the hot function's
// icache footprint and making "allocation-free" depend on inliner mood.
//
// FlatVec and FlatRing pin the structure instead: the fast path is a
// bounds check plus a store, and every allocation lives in a
// [[gnu::noinline, gnu::cold]] member the caller merely *calls*. Amortized
// growth still happens (pools and queues size themselves to their
// high-water mark); it just can never be inlined back into audited code.
//
//   FlatVec<T>   contiguous vector for trivially-copyable records (event
//                records, slot metadata, free lists). push_back_unchecked
//                is for callers that maintain a capacity invariant
//                elsewhere (e.g. PacketPool::release, whose freelist can
//                never outgrow the storage the acquire path reserved).
//   FlatRing<T>  power-of-two ring deque for move-only payloads (queue
//                disciplines holding PacketPtr, a link's delivery lane).
//                Replaces std::deque, whose block map allocates on push
//                and frees on pop right in the middle of enqueue/dequeue.
//   FlatDeque<T> deque of trivially-copyable records supporting iteration,
//                indexing, interior erase and interior insert: the MPTCP
//                reinjection queues, and tcp::SegRing (tcp/seg_ring.h), the
//                sequence-keyed store of the send window, the out-of-order
//                queue, the reinjection ledger and the reorder buffer. A
//                FlatVec window [head, size): pop_front advances head and
//                compacts lazily; erase and insert shift the contiguous tail.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

namespace mpr::sim {

template <typename T>
class FlatVec {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "FlatVec is for flat records; use FlatRing for owning payloads");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  FlatVec() = default;
  FlatVec(FlatVec&& other) noexcept
      : data_{std::exchange(other.data_, nullptr)},
        size_{std::exchange(other.size_, 0)},
        cap_{std::exchange(other.cap_, 0)} {}
  FlatVec& operator=(FlatVec&& other) noexcept {
    if (this != &other) {
      dealloc();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      cap_ = std::exchange(other.cap_, 0);
    }
    return *this;
  }
  FlatVec(const FlatVec&) = delete;
  FlatVec& operator=(const FlatVec&) = delete;
  ~FlatVec() { dealloc(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void clear() { size_ = 0; }

  void push_back(const T& v) {
    if (size_ == cap_) [[unlikely]] {
      grow(size_ + 1);
    }
    data_[size_++] = v;
  }

  /// Appends without the growth branch. The caller owns the proof that
  /// capacity suffices (debug-asserted): e.g. a freelist reserved to the
  /// size of the storage it indexes can never overflow.
  void push_back_unchecked(const T& v) {
    assert(size_ < cap_ && "FlatVec::push_back_unchecked: capacity invariant violated");
    data_[size_++] = v;
  }

  void pop_back() {
    assert(size_ > 0);
    --size_;
  }

  /// Drops every element past the first `n` (n <= size).
  void truncate(std::size_t n) {
    assert(n <= size_);
    size_ = n;
  }

  /// Inserts `v` before position `i` (i <= size), shifting the tail up.
  void insert_at(std::size_t i, const T& v) {
    assert(i <= size_);
    if (size_ == cap_) [[unlikely]] {
      grow(size_ + 1);
    }
    std::copy_backward(data_ + i, data_ + size_, data_ + size_ + 1);
    data_[i] = v;
    ++size_;
  }

  /// Removes the elements at positions [first, last), shifting the tail down.
  void erase(std::size_t first, std::size_t last) {
    assert(first <= last && last <= size_);
    std::copy(data_ + last, data_ + size_, data_ + first);
    size_ -= last - first;
  }

  /// Ensures capacity >= n (geometric, so repeated reserve(n+1) stays
  /// amortized-constant like push_back).
  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }
  T& front() { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  void swap(FlatVec& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(cap_, other.cap_);
  }

 private:
  // The only allocation in the class, deliberately out of line and cold so
  // it can never be inlined into an audited hot function.
  [[gnu::noinline, gnu::cold]] void grow(std::size_t need) {
    std::size_t cap = cap_ == 0 ? kMinCapacity : cap_;
    while (cap < need) cap *= 2;
    T* data = std::allocator<T>().allocate(cap);
    if (size_ != 0) std::memcpy(data, data_, size_ * sizeof(T));
    if (data_ != nullptr) std::allocator<T>().deallocate(data_, cap_);
    data_ = data;
    cap_ = cap;
  }

  void dealloc() {
    if (data_ != nullptr) std::allocator<T>().deallocate(data_, cap_);
  }

  static constexpr std::size_t kMinCapacity = 16;

  T* data_{nullptr};
  std::size_t size_{0};
  std::size_t cap_{0};
};

template <typename T>
class FlatRing {
 public:
  FlatRing() = default;
  FlatRing(FlatRing&& other) noexcept
      : data_{std::exchange(other.data_, nullptr)},
        head_{std::exchange(other.head_, 0)},
        size_{std::exchange(other.size_, 0)},
        cap_{std::exchange(other.cap_, 0)} {}
  FlatRing& operator=(FlatRing&& other) noexcept {
    if (this != &other) {
      destroy_all();
      data_ = std::exchange(other.data_, nullptr);
      head_ = std::exchange(other.head_, 0);
      size_ = std::exchange(other.size_, 0);
      cap_ = std::exchange(other.cap_, 0);
    }
    return *this;
  }
  FlatRing(const FlatRing&) = delete;
  FlatRing& operator=(const FlatRing&) = delete;
  ~FlatRing() { destroy_all(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void push_back(T v) {
    if (size_ == cap_) [[unlikely]] {
      grow();
    }
    ::new (static_cast<void*>(slot(head_ + size_))) T(std::move(v));
    ++size_;
  }

  [[nodiscard]] T& front() {
    assert(size_ > 0);
    return *slot(head_);
  }

  T pop_front() {
    assert(size_ > 0);
    T* p = slot(head_);
    T v = std::move(*p);
    p->~T();
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
    return v;
  }

  void clear() { destroy_elements(); }

 private:
  [[nodiscard]] T* slot(std::size_t logical) {
    return data_ + (logical & (cap_ - 1));
  }

  // The only allocation, out of line and cold (see FlatVec::grow). Elements
  // are compacted to the front of the new buffer, preserving FIFO order.
  [[gnu::noinline, gnu::cold]] void grow() {
    const std::size_t cap = cap_ == 0 ? kMinCapacity : cap_ * 2;
    T* data = std::allocator<T>().allocate(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      T* p = slot(head_ + i);
      ::new (static_cast<void*>(data + i)) T(std::move(*p));
      p->~T();
    }
    if (data_ != nullptr) std::allocator<T>().deallocate(data_, cap_);
    data_ = data;
    head_ = 0;
    cap_ = cap;
  }

  void destroy_elements() {
    for (std::size_t i = 0; i < size_; ++i) {
      slot(head_ + i)->~T();
    }
    head_ = 0;
    size_ = 0;
  }

  void destroy_all() {
    destroy_elements();
    if (data_ != nullptr) std::allocator<T>().deallocate(data_, cap_);
  }

  static constexpr std::size_t kMinCapacity = 16;  // power of two (ring mask)

  T* data_{nullptr};
  std::size_t head_{0};
  std::size_t size_{0};
  std::size_t cap_{0};
};

template <typename T>
class FlatDeque {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "FlatDeque is for flat records");

 public:
  using iterator = T*;
  using const_iterator = const T*;

  [[nodiscard]] std::size_t size() const { return vec_.size() - head_; }
  [[nodiscard]] bool empty() const { return head_ == vec_.size(); }

  [[nodiscard]] T& operator[](std::size_t i) { return vec_[head_ + i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return vec_[head_ + i]; }
  [[nodiscard]] T& front() { return vec_[head_]; }
  [[nodiscard]] const T& front() const { return vec_[head_]; }
  [[nodiscard]] const T& back() const { return vec_.back(); }

  void push_back(const T& v) { vec_.push_back(v); }

  /// Drops the first `n` elements (n <= size).
  void pop_front(std::size_t n = 1) {
    assert(n <= size());
    head_ += n;
    if (head_ == vec_.size()) {
      clear();
    } else if (head_ >= kCompactAt && head_ * 2 >= vec_.size()) {
      // Lazy compaction keeps memory bounded at 2x the live window while
      // staying amortized O(1): a compact moves at most as many elements
      // as the pops since the last one. A memmove, never an allocation.
      std::copy(vec_.begin() + head_, vec_.end(), vec_.begin());
      vec_.truncate(vec_.size() - head_);
      head_ = 0;
    }
  }

  iterator begin() { return vec_.begin() + head_; }
  iterator end() { return vec_.end(); }
  const_iterator begin() const { return vec_.begin() + head_; }
  const_iterator end() const { return vec_.end(); }

  /// Removes *it; returns an iterator to the element after it. Shifts the
  /// tail left (the windows here hold a handful of records).
  iterator erase(iterator it) {
    assert(begin() <= it && it < end());
    std::copy(it + 1, end(), it);
    vec_.pop_back();
    return it;
  }

  /// Inserts `v` before `it`; returns an iterator to it. Shifts the tail
  /// right, and grows (FlatVec's cold path) when the storage is full.
  iterator insert(iterator it, const T& v) {
    assert(begin() <= it && it <= end());
    const auto i = static_cast<std::size_t>(it - vec_.begin());
    vec_.insert_at(i, v);
    return vec_.begin() + i;
  }

  void clear() {
    vec_.clear();
    head_ = 0;
  }

 private:
  static constexpr std::size_t kCompactAt = 16;

  FlatVec<T> vec_;
  std::size_t head_{0};
};

}  // namespace mpr::sim
