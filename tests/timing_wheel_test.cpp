// Timing-wheel unit tests: cascade boundaries, the no-late-handover
// invariant under randomized stress, far-future clamping, and — through the
// EventQueue — cancel-after-cascade, wheel routing after a bounded step, and
// same-instant FIFO equivalence with a reference scheduler model.
#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.h"
#include "sim/time.h"
#include "sim/timing_wheel.h"

namespace mpr::sim {
namespace {

constexpr std::int64_t kTick = std::int64_t{1} << TimingWheel::kResolutionBits;

TimingWheel::Entry entry_at(std::int64_t ns, std::uint64_t seq) {
  // The wheel treats seq_slot as an opaque payload; these tests use it as a
  // plain sequence number.
  return TimingWheel::Entry{TimePoint::from_ns(ns), seq};
}

std::vector<std::uint64_t> drain_to(TimingWheel& w, std::int64_t ns) {
  std::vector<std::uint64_t> out;
  w.advance(
      TimePoint::from_ns(ns), [&](const TimingWheel::Entry& e) { out.push_back(e.seq_slot); },
      [](const auto&) { return true; });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(TimingWheelTest, DeliversAcrossLevelBoundaries) {
  TimingWheel w;
  // One entry per level: just inside level 0, just past the level-0 span,
  // and so on up to the top level (spans are 64^(j+1) ticks).
  std::vector<std::int64_t> whens;
  for (int level = 0; level < TimingWheel::kLevels; ++level) {
    const std::int64_t span_ticks = std::int64_t{1} << (TimingWheel::kSlotBits * (level + 1));
    whens.push_back((span_ticks - 1) * kTick);  // last tick inside the span
    whens.push_back(span_ticks * kTick);        // first tick of the next level
  }
  for (std::size_t i = 0; i < whens.size(); ++i) {
    w.insert(entry_at(whens[i], i));
  }
  ASSERT_EQ(w.size(), whens.size());

  // Advancing to exactly each due time must have delivered that entry (the
  // wheel may hand entries over early — slot granularity — never late).
  std::vector<std::uint64_t> delivered;
  std::vector<std::int64_t> sorted_whens = whens;
  std::sort(sorted_whens.begin(), sorted_whens.end());
  for (const std::int64_t t : sorted_whens) {
    const auto batch = drain_to(w, t);
    delivered.insert(delivered.end(), batch.begin(), batch.end());
    for (std::size_t i = 0; i < whens.size(); ++i) {
      if (whens[i] <= t) {
        EXPECT_TRUE(std::find(delivered.begin(), delivered.end(), i) != delivered.end())
            << "entry due at " << whens[i] << " not delivered by advance(" << t << ")";
      }
    }
  }
  EXPECT_TRUE(w.empty());
}

TEST(TimingWheelTest, NextDueIsALowerBound) {
  TimingWheel w;
  w.insert(entry_at(1'000'000'000, 1));  // 1 s -> level 3 slot
  EXPECT_LE(w.next_due().ns(), 1'000'000'000);
  // Advancing to just before next_due must deliver nothing late: the entry
  // may cascade, and next_due can only move forward.
  const std::int64_t before = w.next_due().ns() - 1;
  if (before >= 0) {
    auto out = drain_to(w, before);
    EXPECT_TRUE(out.empty());
  }
  EXPECT_LE(w.next_due().ns(), 1'000'000'000);
  auto out = drain_to(w, 1'000'000'000);
  EXPECT_EQ(out.size(), 1u);
}

TEST(TimingWheelTest, MinInsertFloorMovesWithAdvance) {
  TimingWheel w;
  EXPECT_EQ(w.min_insert_ns(), 0);
  drain_to(w, 100 * kTick);
  EXPECT_GT(w.min_insert_ns(), 100 * kTick);
  // An insert exactly at the floor is accepted and delivered on time.
  const std::int64_t at = w.min_insert_ns();
  w.insert(entry_at(at, 7));
  auto out = drain_to(w, at);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 7u);
}

TEST(TimingWheelTest, CascadeSinksTheEntriesKeepRefuses) {
  TimingWheel w;
  // Both 100 ticks out: level 1, in the slot that starts at tick 64.
  // Opening that slot cascades them; the entry `keep` refuses goes to the
  // sink there, the other drops to level 0 and arrives when due.
  w.insert(entry_at(100 * kTick, 1));
  w.insert(entry_at(100 * kTick, 2));
  std::vector<std::uint64_t> sunk;
  w.advance(
      TimePoint::from_ns(64 * kTick),
      [&](const TimingWheel::Entry& e) { sunk.push_back(e.seq_slot); },
      [](const TimingWheel::Entry& e) { return e.seq_slot != 2; });
  EXPECT_EQ(sunk, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(w.size(), 1u);
  EXPECT_TRUE(drain_to(w, 99 * kTick).empty());
  EXPECT_EQ(drain_to(w, 100 * kTick), (std::vector<std::uint64_t>{1}));
}

TEST(TimingWheelTest, FarFutureBeyondHorizonEventuallyDelivers) {
  TimingWheel w;
  // ~20 days: past the top level's span, so the entry is clamped and must
  // re-bucket as the cursor approaches instead of being dropped or looping.
  const std::int64_t due = std::int64_t{20} * 24 * 3600 * 1'000'000'000;
  w.insert(entry_at(due, 42));
  // March toward it in large steps; nothing may surface early at a step
  // whose target is below the due time.
  std::int64_t t = 0;
  const std::int64_t step = std::int64_t{3} * 24 * 3600 * 1'000'000'000;
  std::vector<std::uint64_t> out;
  while (t + step < due) {
    t += step;
    auto batch = drain_to(w, t);
    EXPECT_TRUE(batch.empty()) << "entry surfaced " << (due - t) << " ns early";
  }
  out = drain_to(w, due);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 42u);
  EXPECT_TRUE(w.empty());
}

TEST(TimingWheelTest, RandomizedStressNeverHandsOverLate) {
  // Model check: entries inserted at random horizons while the cursor jumps
  // by random strides. Invariants after every advance(t): each sunk entry is
  // one we inserted (exactly once), everything still parked is due strictly
  // after t, and no entry is ever lost.
  std::mt19937_64 rng{1212};
  TimingWheel w;
  std::map<std::uint64_t, std::int64_t> parked;  // seq -> due time
  std::uint64_t next_seq = 0;
  std::int64_t now = 0;
  for (int round = 0; round < 2000; ++round) {
    const int inserts = static_cast<int>(rng() % 4);
    for (int i = 0; i < inserts; ++i) {
      // Mix of horizons: sub-tick through multi-level, occasionally beyond
      // the wheel's top-level span (clamped path).
      const int shift = static_cast<int>(rng() % 45);
      const std::int64_t due = std::max<std::int64_t>(
          w.min_insert_ns(), now + static_cast<std::int64_t>(rng() % (std::uint64_t{1} << shift)));
      w.insert(entry_at(due, next_seq));
      parked.emplace(next_seq, due);
      ++next_seq;
    }
    now += static_cast<std::int64_t>(rng() % (std::uint64_t{1} << (rng() % 40)));
    w.advance(
        TimePoint::from_ns(now),
        [&](const TimingWheel::Entry& e) {
          const auto it = parked.find(e.seq_slot);
          ASSERT_TRUE(it != parked.end()) << "unknown or duplicate entry " << e.seq_slot;
          EXPECT_EQ(it->second, e.when.ns());
          parked.erase(it);
        },
        [](const auto&) { return true; });
    EXPECT_EQ(w.size(), parked.size());
    for (const auto& [seq, due] : parked) {
      ASSERT_GT(due, now) << "entry " << seq << " retained past its due time";
    }
  }
}

// --- EventQueue-level behavior (wheel + run integration) ------------------

TEST(EventQueueWheelTest, TimerOrderMatchesReferenceModel) {
  // Events scheduled from inside running events, near (the sorted run) and
  // far (the wheel) mixed, some cancelled while pending, the queue driven by
  // bounded steps. Execution order must match a stable (when, issue-order)
  // sort of the events never cancelled. The delay mixes: spread from 0 to
  // ~2.1 s; drawn from a handful of values, so many events share an
  // instant; bursts of in-order pushes 0.5-12 ms ahead, as a link's FIFO
  // deliveries make; lane records, as a link's delivery lane keeps them;
  // and all four together. A lane record reserves its seq when it joins
  // one of two FIFO lanes ("service end", at one of the few instants, no
  // earlier than the record ahead of it) and is filed under that seq only
  // when the record ahead of it runs, so the reference places it by its
  // reservation.
  enum class Mix { kSpread, kFewInstants, kFifoBursts, kLane, kAll };
  constexpr std::int64_t kInstants[] = {0, 1'000, 500'000, 16'000'000, 40'000'000, 200'000'000};
  constexpr int kEvents = 600;
  for (const Mix mix : {Mix::kSpread, Mix::kFewInstants, Mix::kFifoBursts, Mix::kLane, Mix::kAll}) {
    for (const std::uint64_t seed : {77u, 78u, 79u}) {
      SCOPED_TRACE("mix " + std::to_string(static_cast<int>(mix)) + " seed " +
                   std::to_string(seed));
      std::mt19937_64 rng{seed};
      EventQueue q;
      struct Ref {
        std::int64_t when_ns;
        int id;
      };
      std::vector<Ref> ref;
      std::vector<EventId> ids;  // indexed by ref id, like the two flags
      std::vector<char> ran;
      std::vector<char> cancelled;
      std::vector<char> in_lane;  // lane records are never cancelled
      std::vector<int> order;
      struct LaneRec {
        int id;
        std::uint64_t seq;
      };
      std::vector<LaneRec> lanes[2];  // FIFO: the front is filed
      std::function<void()> tick;
      const auto add_ref = [&](std::int64_t when_ns, bool lane) {
        const int id = static_cast<int>(ref.size());
        ref.push_back(Ref{when_ns, id});
        ran.push_back(0);
        cancelled.push_back(0);
        in_lane.push_back(lane ? 1 : 0);
        ids.push_back(kInvalidEventId);
        return id;
      };
      const auto push = [&](std::int64_t delay) {
        const int id = add_ref(q.now().ns() + delay, false);
        ids[id] = q.schedule_after(Duration::nanos(delay), [&, id] {
          ran[id] = 1;
          order.push_back(id);
          tick();
        });
      };
      std::function<void(int)> file_head;
      file_head = [&](int lane) {
        const LaneRec head = lanes[lane].front();
        ids[head.id] = q.schedule_reserved(TimePoint::from_ns(ref[head.id].when_ns), head.seq,
                                           [&, lane, id = head.id] {
                                             ran[id] = 1;
                                             order.push_back(id);
                                             lanes[lane].erase(lanes[lane].begin());
                                             if (!lanes[lane].empty()) file_head(lane);
                                             tick();
                                           });
      };
      const auto lane_push = [&](int lane, std::int64_t delay) {
        std::vector<LaneRec>& l = lanes[lane];
        std::int64_t when_ns = q.now().ns() + delay;
        if (!l.empty()) when_ns = std::max(when_ns, ref[l.back().id].when_ns);  // FIFO floor
        const int id = add_ref(when_ns, true);
        l.push_back(LaneRec{id, q.reserve_seq()});
        if (l.size() == 1) file_head(lane);
      };
      tick = [&] {
        const int fanout = 1 + static_cast<int>(rng() % 2);
        for (int i = 0; i < fanout && static_cast<int>(ref.size()) < kEvents; ++i) {
          const Mix kind = mix == Mix::kAll ? static_cast<Mix>(rng() % 4) : mix;
          if (kind == Mix::kSpread) {
            push(static_cast<std::int64_t>(rng() % (std::uint64_t{1} << 31)));
          } else if (kind == Mix::kFewInstants) {
            push(kInstants[rng() % std::size(kInstants)]);
          } else if (kind == Mix::kLane) {
            const int lane = static_cast<int>(rng() % 2);
            lane_push(lane, kInstants[rng() % std::size(kInstants)]);
            // An ordinary event at an instant a lane record may hold.
            push(kInstants[rng() % std::size(kInstants)]);
          } else {
            // Back-to-back deliveries: equal or rising times, issued in order.
            const auto first = static_cast<std::int64_t>(500'000 + rng() % 11'500'000);
            const std::int64_t gap = rng() % 2 == 0 ? 0 : 12'000;
            const int burst = 1 + static_cast<int>(rng() % 6);
            for (int k = 0; k < burst; ++k) push(first + k * gap);
          }
        }
        // Cancel a random issued event: only one still pending cancels.
        if (rng() % 4 == 0) {
          const auto victim = static_cast<std::size_t>(rng() % ref.size());
          if (in_lane[victim] != 0) return;
          const bool pending = ran[victim] == 0 && cancelled[victim] == 0;
          EXPECT_EQ(q.cancel(ids[victim]), pending) << "event " << victim;
          if (pending) cancelled[victim] = 1;
        }
      };
      push(0);
      // Bounded steps up to a limit that moves by up to 30 ms at a time.
      std::int64_t limit = 0;
      while (!q.empty()) {
        limit += static_cast<std::int64_t>(rng() % 30'000'000);
        while (q.step(TimePoint::from_ns(limit))) {
          ASSERT_LE(q.now().ns(), limit);
        }
      }

      std::erase_if(ref, [&](const Ref& r) { return cancelled[r.id] != 0; });
      std::stable_sort(ref.begin(), ref.end(),
                       [](const Ref& a, const Ref& b) { return a.when_ns < b.when_ns; });
      ASSERT_EQ(order.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(order[i], ref[i].id) << "divergence at execution index " << i;
      }
    }
  }
}

TEST(EventQueueWheelTest, CancelAfterCascadeNeverFires) {
  EventQueue q;
  bool fired = false;
  // 5 s out: parks in a high wheel level. The 4.9 s event runs after the
  // timer has cascaded down at least one level, then cancels it.
  const EventId id = q.schedule_after(Duration::seconds(5), [&] { fired = true; });
  bool cancelled = false;
  q.schedule_after(Duration::millis(4900), [&] { cancelled = q.cancel(id); });
  q.run_until(TimePoint::from_ns(Duration::seconds(10).ns()));
  EXPECT_TRUE(cancelled);
  EXPECT_FALSE(fired);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueWheelTest, SameInstantFifoAcrossWheelAndHeap) {
  EventQueue q;
  std::vector<int> order;
  // A is scheduled first, far out (wheel); B..D are scheduled for the very
  // same instant later and nearer (B from t=0 via wheel threshold paths, C
  // and D from just before, via the run). FIFO = issue order: A B C D.
  const TimePoint t = TimePoint::from_ns(Duration::millis(100).ns());
  q.schedule_at(t, [&] { order.push_back(0); });  // wheel (100 ms ahead)
  q.schedule_at(t, [&] { order.push_back(1); });  // wheel, same instant
  q.schedule_at(t - Duration::millis(1), [&, t] {
    // Issued at 99 ms for 100 ms: 1 ms ahead -> the near-term run.
    q.schedule_at(t, [&] { order.push_back(2); });
    q.schedule_at(t, [&] { order.push_back(3); });
  });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueueWheelTest, BoundedStepOverAnEmptyHeapKeepsLaterTimersInTheWheel) {
  // With only a wheel timer pending, a step bounded by a far deadline (a
  // run's timeout) must open the wheel's next slot, not drain the wheel up
  // to the bound. A cursor moved out to the bound would send every timer
  // armed later to the near-term run, where each cancelled one stays as a
  // tombstone until its due time.
  EventQueue q;
  bool ran = false;
  q.schedule_after(Duration::seconds(1), [&] { ran = true; });
  ASSERT_TRUE(q.step(TimePoint::from_ns(Duration::seconds(7200).ns())));
  ASSERT_TRUE(ran);
  EXPECT_EQ(q.now().ns(), Duration::seconds(1).ns());
  const EventId rto = q.schedule_after(Duration::millis(200), [] {});
  ASSERT_TRUE(q.cancel(rto));
  EXPECT_EQ(q.near_size(), 0u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueWheelTest, WheelTimerCancelRearmChurn) {
  // RTO-style churn: every data event cancels and re-arms a far timer; the
  // timer must fire only when the churn stops, exactly once, on time.
  EventQueue q;
  int timer_fires = 0;
  EventId timer = kInvalidEventId;
  std::function<void(int)> pump = [&](int remaining) {
    if (timer != kInvalidEventId) q.cancel(timer);
    timer = q.schedule_after(Duration::millis(200), [&] {
      ++timer_fires;
      timer = kInvalidEventId;
    });
    if (remaining > 0) {
      q.schedule_after(Duration::millis(1), [&, remaining] { pump(remaining - 1); });
    }
  };
  q.schedule_at(TimePoint::from_ns(0), [&] { pump(500); });
  q.run();
  EXPECT_EQ(timer_fires, 1);
  // 500 pumps at 1 ms then one 200 ms timeout.
  EXPECT_EQ(q.now().ns(), Duration::millis(700).ns());
}

}  // namespace
}  // namespace mpr::sim
