// Flat segment-container tests: ring wraparound, growth with a wrapped
// head, binary-search correctness against a std::map reference, and the
// SeqFlatMap insert/erase/order contract.
#include <cstdint>
#include <map>
#include <random>

#include <gtest/gtest.h>

#include "tcp/seg_ring.h"

namespace mpr::tcp {
namespace {

TEST(SegRingTest, PushFindPopBasics) {
  SegRing<int> r;
  EXPECT_TRUE(r.empty());
  r.push_back(10, 1);
  r.push_back(20, 2);
  r.push_back(35, 3);
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.front().seq, 10u);
  EXPECT_EQ(r.back().seq, 35u);
  ASSERT_NE(r.find(20), nullptr);
  EXPECT_EQ(*r.find(20), 2);
  EXPECT_EQ(r.find(21), nullptr);
  EXPECT_EQ(r.lower_bound(20), 1u);
  EXPECT_EQ(r.lower_bound(21), 2u);
  EXPECT_EQ(r.lower_bound(99), 3u);
  r.pop_front();
  EXPECT_EQ(r.front().seq, 20u);
  EXPECT_EQ(r.find(10), nullptr);
}

TEST(SegRingTest, WrapsAroundWithoutGrowing) {
  // Interleave pushes and pops so head_ laps the buffer several times while
  // the population stays below the initial capacity (64): steady-state flow
  // behavior, which must not allocate (ASan/valgrind cover the rest).
  SegRing<std::uint64_t> r;
  std::uint64_t next = 0;
  std::uint64_t oldest = 0;
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 3; ++i) {
      r.push_back(next, next * 7);
      ++next;
    }
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(r.front().seq, oldest);
      EXPECT_EQ(r.front().val, oldest * 7);
      r.pop_front();
      ++oldest;
    }
  }
  EXPECT_TRUE(r.empty());
}

TEST(SegRingTest, GrowsWithWrappedHead) {
  SegRing<int> r;
  // Advance head so the live region wraps, then force growth past the
  // initial capacity and verify order survived re-linearization.
  for (std::uint64_t s = 0; s < 40; ++s) r.push_back(s, static_cast<int>(s));
  for (int i = 0; i < 30; ++i) r.pop_front();  // head at 30, count 10
  for (std::uint64_t s = 40; s < 200; ++s) r.push_back(s, static_cast<int>(s));
  ASSERT_EQ(r.size(), 170u);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r.at(i).seq, 30 + i);
    EXPECT_EQ(r.at(i).val, static_cast<int>(30 + i));
  }
  ASSERT_NE(r.find(123), nullptr);
  EXPECT_EQ(*r.find(123), 123);
}

TEST(SegRingTest, LowerBoundMatchesMapReference) {
  // Sparse, irregular seq gaps (like MSS-sized segments with a FIN): the
  // ring's binary search must agree with std::map::lower_bound everywhere.
  std::mt19937_64 rng{42};
  SegRing<int> r;
  std::map<std::uint64_t, int> ref;
  std::uint64_t seq = 1;
  for (int i = 0; i < 500; ++i) {
    r.push_back(seq, i);
    ref.emplace(seq, i);
    seq += 1 + rng() % 3000;
  }
  for (std::uint64_t probe = 0; probe < seq + 100; probe += 37) {
    const auto it = ref.lower_bound(probe);
    const std::size_t idx = r.lower_bound(probe);
    if (it == ref.end()) {
      EXPECT_EQ(idx, r.size());
    } else {
      ASSERT_LT(idx, r.size());
      EXPECT_EQ(r.at(idx).seq, it->first);
    }
  }
}

TEST(SeqFlatMapTest, InsertKeepsOrderAndDedups) {
  SeqFlatMap<char> m;
  m.insert(50, 'c');
  m.insert(10, 'a');
  m.insert(30, 'b');
  m.insert(30, 'D');  // duplicate: first insert wins, like map::emplace
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m.at(0).seq, 10u);
  EXPECT_EQ(m.at(1).seq, 30u);
  EXPECT_EQ(m.at(1).val, 'b');
  EXPECT_EQ(m.at(2).seq, 50u);
  EXPECT_TRUE(m.contains(30));
  EXPECT_FALSE(m.contains(31));
  m.erase_at(0);
  EXPECT_EQ(m.front().seq, 30u);
  EXPECT_EQ(m.size(), 2u);
}

TEST(SeqFlatMapTest, RandomizedAgainstMapReference) {
  // Out-of-order arrival pattern: random inserts (with duplicates) and
  // front-biased erases, mirrored into a std::map.
  std::mt19937_64 rng{7};
  SeqFlatMap<int> m;
  std::map<std::uint64_t, int> ref;
  for (int round = 0; round < 3000; ++round) {
    const auto op = rng() % 3;
    if (op < 2 || ref.empty()) {
      const std::uint64_t seq = rng() % 200;
      const int val = static_cast<int>(rng() % 1000);
      m.insert(seq, val);
      ref.emplace(seq, val);
    } else {
      m.erase_at(0);
      ref.erase(ref.begin());
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  std::size_t i = 0;
  for (const auto& [seq, val] : ref) {
    EXPECT_EQ(m.at(i).seq, seq);
    EXPECT_EQ(m.at(i).val, val);
    ++i;
  }
}

}  // namespace
}  // namespace mpr::tcp
