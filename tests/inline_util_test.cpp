// Unit tests for the inline-storage building blocks of the zero-allocation
// packet hot path: ActionSlot (event-queue actions) and InlineVec (SACK
// blocks).
#include <cstdint>

#include <gtest/gtest.h>

#include "sim/action_slot.h"
#include "sim/inline_vec.h"

namespace mpr::sim {
namespace {

// ---------------------------------------------------------------------------
// ActionSlot: built in place, then run once or dropped, never moved.

/// Counts calls and the destruction of the instance the slot holds (the
/// caller's moved-from temporary does not count).
struct CountingAction {
  int* calls;
  int* destroyed;
  bool owner{true};
  CountingAction(int* c, int* d) : calls{c}, destroyed{d} {}
  CountingAction(CountingAction&& other) noexcept
      : calls{other.calls}, destroyed{other.destroyed} {
    other.owner = false;
  }
  CountingAction(const CountingAction&) = delete;
  ~CountingAction() {
    if (owner) ++*destroyed;
  }
  void operator()() const { ++*calls; }
};

TEST(ActionSlot, RunsOnceAndIsDestroyedOnce) {
  int calls = 0;
  int destroyed = 0;
  {
    ActionSlot slot;
    slot.emplace(CountingAction{&calls, &destroyed});
    EXPECT_EQ(destroyed, 0);
    slot.run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(destroyed, 1) << "run() destroys the closure it ran";
    slot.drop();  // the slot is empty again: nothing left to destroy
  }
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(destroyed, 1);
}

TEST(ActionSlot, DestroyedOnDrop) {
  int calls = 0;
  int destroyed = 0;
  {
    ActionSlot slot;
    // Cancel: the queue drops the closure without running it.
    slot.emplace(CountingAction{&calls, &destroyed});
    slot.drop();
    EXPECT_EQ(destroyed, 1);
    slot.drop();
    EXPECT_EQ(destroyed, 1) << "a second drop() destroyed the closure again";
    // The dropped slot takes a new closure, which drop() destroys too.
    slot.emplace(CountingAction{&calls, &destroyed});
    slot.drop();
    EXPECT_EQ(destroyed, 2);
  }
  EXPECT_EQ(destroyed, 2) << "teardown destroyed an already dropped closure";
  EXPECT_EQ(calls, 0);
}

TEST(ActionSlot, DestroyedAtTeardown) {
  int calls = 0;
  int destroyed = 0;
  {
    ActionSlot slot;
    // A closure still pending when the arena goes away.
    slot.emplace(CountingAction{&calls, &destroyed});
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
  EXPECT_EQ(calls, 0);
}

TEST(ActionSlot, AcceptsCaptureAtExactCapacity) {
  struct Pad {
    unsigned char bytes[64];
  };
  static_assert(sizeof(Pad) == kEventActionCapacity);
  static int seen = 0;
  Pad pad{};
  pad.bytes[63] = 9;
  ActionSlot slot;
  slot.emplace([pad] { seen = pad.bytes[63]; });
  slot.run();
  EXPECT_EQ(seen, 9);
  // A 65-byte closure would fail the static_assert in emplace(), enforced
  // at compile time, so there is nothing to test at runtime.
}

// ---------------------------------------------------------------------------
// InlineVec.

TEST(InlineVec, StartsEmptyWithFixedCapacity) {
  InlineVec<std::uint64_t, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 4u);
  EXPECT_FALSE(v.full());
}

TEST(InlineVec, PushBackAppendsInOrder) {
  InlineVec<int, 4> v;
  v.push_back(10);
  v.push_back(20);
  v.push_back(30);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 20);
  EXPECT_EQ(v[2], 30);
  EXPECT_EQ(v.front(), 10);
  EXPECT_EQ(v.back(), 30);
}

TEST(InlineVec, TryPushBackRefusesWhenFull) {
  InlineVec<int, 2> v;
  EXPECT_TRUE(v.try_push_back(1));
  EXPECT_TRUE(v.try_push_back(2));
  EXPECT_TRUE(v.full());
  EXPECT_FALSE(v.try_push_back(3));  // unchanged on overflow
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v.back(), 2);
}

TEST(InlineVec, ClearKeepsNothingButAllowsReuse) {
  InlineVec<int, 4> v;
  v.push_back(1);
  v.push_back(2);
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(5);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 5);
}

TEST(InlineVec, RangeForIteratesLiveElementsOnly) {
  InlineVec<int, 4> v;
  v.push_back(1);
  v.push_back(2);
  v.push_back(3);
  int sum = 0;
  for (const int x : v) sum += x;
  EXPECT_EQ(sum, 6);
}

TEST(InlineVec, EqualityComparesSizeAndElements) {
  InlineVec<int, 4> a;
  InlineVec<int, 4> b;
  EXPECT_TRUE(a == b);
  a.push_back(1);
  EXPECT_FALSE(a == b);
  b.push_back(1);
  EXPECT_TRUE(a == b);
  a.push_back(2);
  b.push_back(3);
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace mpr::sim
