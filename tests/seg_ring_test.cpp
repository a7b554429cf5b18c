// SegRing tests: append/pop across FlatDeque's compaction point, growth
// with a non-zero head, binary-search correctness against a std::map
// reference, the insert/drain contract of the out-of-order stores, and a
// seeded diff of every operation against a std::map.
#include <algorithm>
#include <cstdint>
#include <iterator>
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

TEST(SegRingTest, SteadyAppendAndPopPastCompaction) {
  // A steady send window: three appends, three pops, a thousand times. The
  // head passes FlatDeque's 16-pop compaction point again and again while
  // the population stays at most three, so every compaction must carry
  // the live records down intact.
  SegRing<std::uint64_t> r;
  std::uint64_t next = 0;
  std::uint64_t oldest = 0;
  for (int round = 0; round < 1000; ++round) {
    for (int i = 0; i < 3; ++i) {
      r.push_back(next, next * 7);
      ++next;
    }
    for (int i = 0; i < 3; ++i) {
      ASSERT_EQ(r.front().seq, oldest);
      EXPECT_EQ(r.front().val, oldest * 7);
      ASSERT_NE(r.find(next - 1), nullptr);
      EXPECT_EQ(*r.find(next - 1), (next - 1) * 7);
      r.pop_front();
      ++oldest;
    }
  }
  EXPECT_TRUE(r.empty());
}

TEST(SegRingTest, GrowsWithNonZeroHead) {
  // 40 appends, 15 pops (below the compaction point, so the head stays at
  // 15), then growth well past the first block: order and values survive.
  SegRing<int> r;
  for (std::uint64_t s = 0; s < 40; ++s) r.push_back(s, static_cast<int>(s));
  for (int i = 0; i < 15; ++i) r.pop_front();
  for (std::uint64_t s = 40; s < 200; ++s) r.push_back(s, static_cast<int>(s));
  ASSERT_EQ(r.size(), 185u);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r.at(i).seq, 15 + i);
    EXPECT_EQ(r.at(i).val, static_cast<int>(15 + i));
  }
  ASSERT_NE(r.find(123), nullptr);
  EXPECT_EQ(*r.find(123), 123);
  EXPECT_EQ(r.find(14), nullptr);
}

TEST(SegRingTest, LowerBoundMatchesMapReference) {
  // Sparse, irregular seq gaps (like MSS-sized segments with a FIN): the
  // store's binary search must agree with std::map::lower_bound everywhere.
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

TEST(SegRingTest, InsertKeepsOrderAndDedups) {
  SegRing<char> m;
  EXPECT_TRUE(m.insert(50, 'c'));
  EXPECT_TRUE(m.insert(10, 'a'));
  EXPECT_TRUE(m.insert(30, 'b'));
  EXPECT_FALSE(m.insert(30, 'D'));  // first insert wins, like map::emplace
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m.at(0).seq, 10u);
  EXPECT_EQ(m.at(1).seq, 30u);
  EXPECT_EQ(m.at(1).val, 'b');
  EXPECT_EQ(m.at(2).seq, 50u);
  EXPECT_TRUE(m.contains(30));
  EXPECT_FALSE(m.contains(31));
  EXPECT_FALSE(m.contains(51));
  m.pop_front();
  EXPECT_EQ(m.front().seq, 30u);
  EXPECT_EQ(m.size(), 2u);
}

TEST(SegRingTest, RandomizedAgainstMapReference) {
  // Out-of-order arrival pattern: random inserts (with duplicates) and
  // front drains, mirrored into a std::map.
  std::mt19937_64 rng{7};
  SegRing<int> m;
  std::map<std::uint64_t, int> ref;
  for (int round = 0; round < 3000; ++round) {
    const auto op = rng() % 3;
    if (op < 2 || ref.empty()) {
      const std::uint64_t seq = rng() % 200;
      const int val = static_cast<int>(rng() % 1000);
      EXPECT_EQ(m.insert(seq, val), ref.emplace(seq, val).second);
    } else {
      m.pop_front();
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

TEST(SegRingTest, EveryOperationMatchesMapReference) {
  // Seeded diff of every operation against a std::map. Keys drift upward
  // like a sequence space: appends past the back, inserts into the window
  // (some at a held seq), front pops and cumulative sweeps. After each
  // operation the size, the order and every stored value must match, and
  // so must a find, a contains and a lower_bound probe.
  std::mt19937_64 rng{2013};
  SegRing<std::uint32_t> r;
  std::map<std::uint64_t, std::uint32_t> ref;
  std::uint64_t base = 0;  // lowest seq any operation targets
  std::uint64_t top = 0;   // highest seq stored or swept to
  for (int step = 0; step < 4000; ++step) {
    const auto val = static_cast<std::uint32_t>(rng());
    switch (rng() % 6) {
      case 0:
      case 1: {  // append past the back
        top += 1 + rng() % 8;
        r.push_back(top, val);
        ref.emplace(top, val);
        break;
      }
      case 2: {  // insert anywhere in [base, top + 4), duplicates included
        const std::uint64_t seq = base + rng() % (top - base + 4);
        top = std::max(top, seq);
        EXPECT_EQ(r.insert(seq, val), ref.emplace(seq, val).second) << "step " << step;
        break;
      }
      case 3: {
        if (ref.empty()) break;
        r.pop_front();
        ref.erase(ref.begin());
        break;
      }
      case 4: {  // cumulative sweep up to a point inside or past the window
        base += rng() % 12;
        r.erase_below(base);
        ref.erase(ref.begin(), ref.lower_bound(base));
        top = std::max(top, base);
        break;
      }
      default: {  // write through find, as retransmit() marks a segment
        const std::uint64_t seq = base + rng() % (top - base + 2);
        std::uint32_t* v = r.find(seq);
        const auto it = ref.find(seq);
        ASSERT_EQ(v != nullptr, it != ref.end()) << "step " << step;
        if (v != nullptr) {
          *v = val;
          it->second = val;
        }
        break;
      }
    }
    ASSERT_EQ(r.size(), ref.size()) << "step " << step;
    ASSERT_EQ(r.empty(), ref.empty());
    std::size_t i = 0;
    for (const auto& [seq, v] : ref) {
      ASSERT_EQ(r.at(i).seq, seq) << "step " << step << " index " << i;
      ASSERT_EQ(r.at(i).val, v) << "step " << step << " index " << i;
      ++i;
    }
    const std::uint64_t probe = base + rng() % (top - base + 3);
    const auto lb = ref.lower_bound(probe);
    EXPECT_EQ(r.lower_bound(probe), static_cast<std::size_t>(std::distance(ref.begin(), lb)));
    EXPECT_EQ(r.contains(probe), ref.count(probe) == 1);
    EXPECT_EQ(r.find(probe) != nullptr, ref.count(probe) == 1);
  }
}

}  // namespace
}  // namespace mpr::tcp
