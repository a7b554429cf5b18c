// Unit tests for the simulation core: time arithmetic, the event queue's
// ordering/cancellation semantics, deterministic RNG streams, the
// campaign's parallel index loop, and the components' Timer handle.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.h"
#include "sim/parallel.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "sim/time.h"
#include "sim/timer.h"

namespace mpr::sim {
namespace {

TEST(DurationTest, FactoryUnitsAgree) {
  EXPECT_EQ(Duration::micros(1).ns(), 1000);
  EXPECT_EQ(Duration::millis(1).ns(), 1'000'000);
  EXPECT_EQ(Duration::seconds(1).ns(), 1'000'000'000);
  EXPECT_EQ(Duration::from_seconds(0.5).ns(), 500'000'000);
  EXPECT_EQ(Duration::from_millis(1.5).ns(), 1'500'000);
}

TEST(DurationTest, Arithmetic) {
  const Duration a = Duration::millis(30);
  const Duration b = Duration::millis(12);
  EXPECT_EQ((a + b).to_millis(), 42.0);
  EXPECT_EQ((a - b).to_millis(), 18.0);
  EXPECT_EQ((a * 2.0).to_millis(), 60.0);
  EXPECT_EQ((a / 3).to_millis(), 10.0);
  EXPECT_DOUBLE_EQ(a / b, 2.5);
  EXPECT_LT(b, a);
}

TEST(DurationTest, ConversionRoundTrip) {
  const Duration d = Duration::from_seconds(1.2345);
  EXPECT_NEAR(d.to_seconds(), 1.2345, 1e-9);
  EXPECT_NEAR(d.to_millis(), 1234.5, 1e-6);
}

TEST(TimePointTest, Arithmetic) {
  const TimePoint t0 = TimePoint::origin();
  const TimePoint t1 = t0 + Duration::millis(5);
  EXPECT_EQ((t1 - t0).to_millis(), 5.0);
  EXPECT_GT(t1, t0);
  EXPECT_EQ((t1 - Duration::millis(5)), t0);
}

TEST(TimeToString, HumanReadable) {
  EXPECT_EQ(to_string(Duration::millis(12)), "12.000ms");
  EXPECT_EQ(to_string(Duration::seconds(2)), "2.000s");
  EXPECT_EQ(to_string(Duration::nanos(15)), "15ns");
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(TimePoint::from_ns(300), [&] { order.push_back(3); });
  q.schedule_at(TimePoint::from_ns(100), [&] { order.push_back(1); });
  q.schedule_at(TimePoint::from_ns(200), [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), TimePoint::from_ns(300));
}

TEST(EventQueueTest, FifoAtSameInstant) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(TimePoint::from_ns(50), [&order, i] { order.push_back(i); });
  }
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule_after(Duration::millis(1), [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double-cancel is a no-op
  q.run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelInvalidIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(kInvalidEventId));
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(TimePoint::from_ns(100), [&] { order.push_back(1); });
  q.schedule_at(TimePoint::from_ns(200), [&] { order.push_back(2); });
  q.schedule_at(TimePoint::from_ns(300), [&] { order.push_back(3); });
  q.run_until(TimePoint::from_ns(200));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), TimePoint::from_ns(200));
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueTest, RunUntilAdvancesClockWhenIdle) {
  EventQueue q;
  q.run_until(TimePoint::from_ns(5000));
  EXPECT_EQ(q.now(), TimePoint::from_ns(5000));
}

TEST(EventQueueTest, EventsScheduledFromEventsRun) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) q.schedule_after(Duration::millis(1), recurse);
  };
  q.schedule_after(Duration::millis(1), recurse);
  q.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(q.now(), TimePoint::origin() + Duration::millis(10));
}

TEST(EventQueueTest, PastSchedulingClampsToNow) {
  EventQueue q;
  q.schedule_at(TimePoint::from_ns(1000), [&] {
    // Scheduling "in the past" runs at the current instant, not before.
    bool ran = false;
    q.schedule_at(TimePoint::from_ns(10), [&] { ran = true; });
    (void)ran;
  });
  q.run();
  EXPECT_EQ(q.now(), TimePoint::from_ns(1000));
}

TEST(EventQueueTest, CancelAfterFireReturnsFalse) {
  EventQueue q;
  int runs = 0;
  const EventId id = q.schedule_after(Duration::millis(1), [&] { ++runs; });
  q.run();
  EXPECT_EQ(runs, 1);
  // The slot was recycled when the event fired; its old id must stay dead.
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelTwiceSecondIsFalse) {
  EventQueue q;
  const EventId id = q.schedule_after(Duration::millis(1), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // tombstoned, its record still pending
  q.run();                     // pops the tombstone and recycles the slot
  EXPECT_FALSE(q.cancel(id));  // generation bumped: still dead
}

TEST(EventQueueTest, StaleCancelDoesNotKillSlotReuse) {
  EventQueue q;
  const EventId old_id = q.schedule_at(TimePoint::from_ns(10), [] {});
  EXPECT_TRUE(q.cancel(old_id));
  q.run();  // drains the tombstone; the slot returns to the free list
  bool ran = false;
  const EventId new_id = q.schedule_at(TimePoint::from_ns(20), [&] { ran = true; });
  EXPECT_NE(new_id, old_id);
  // The recycled slot now belongs to new_id; the stale id must not touch it.
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_TRUE(ran);
}

TEST(EventQueueTest, FifoPreservedAcrossCancelAndSlotReuse) {
  EventQueue q;
  std::vector<int> order;
  const TimePoint t = TimePoint::from_ns(100);
  q.schedule_at(t, [&] { order.push_back(0); });
  const EventId dead = q.schedule_at(t, [&] { order.push_back(1); });
  q.schedule_at(t, [&] { order.push_back(2); });
  EXPECT_TRUE(q.cancel(dead));
  // Newly scheduled events at the same instant run after older ones even
  // when they reuse a cancelled event's storage.
  q.schedule_at(t, [&] { order.push_back(3); });
  q.schedule_at(t, [&] { order.push_back(4); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 4}));
}

TEST(EventQueueTest, ActionCancelsLaterSameInstantEvent) {
  // The victim is already due when the first action cancels it; it must not
  // run, whichever loop drains the instant.
  for (const bool use_run_until : {false, true}) {
    EventQueue q;
    std::vector<int> order;
    const TimePoint t = TimePoint::from_ns(100);
    EventId victim = kInvalidEventId;
    q.schedule_at(t, [&] {
      order.push_back(0);
      EXPECT_TRUE(q.cancel(victim));
    });
    victim = q.schedule_at(t, [&] { order.push_back(1); });
    q.schedule_at(t, [&] { order.push_back(2); });
    if (use_run_until) {
      q.run_until(t);
    } else {
      q.run();
    }
    EXPECT_EQ(order, (std::vector<int>{0, 2})) << (use_run_until ? "run_until" : "run");
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.cancel(victim));
  }
}

TEST(EventQueueTest, HeavyCancelChurnKeepsTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(q.schedule_at(TimePoint::from_ns(1000 - i), [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 200; i += 2) EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
  q.run();
  ASSERT_EQ(fired.size(), 100u);
  // Odd indices survive; they were scheduled at descending times.
  for (std::size_t k = 1; k < fired.size(); ++k) EXPECT_GT(fired[k - 1], fired[k]);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, ExecutedCounter) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.schedule_after(Duration::nanos(i), [] {});
  q.run();
  EXPECT_EQ(q.executed(), 7u);
}

namespace {
struct MoveCountingAction {
  int* moves;
  int* calls;
  MoveCountingAction(int* m, int* c) : moves{m}, calls{c} {}
  MoveCountingAction(MoveCountingAction&& other) noexcept
      : moves{other.moves}, calls{other.calls} {
    ++*moves;
  }
  MoveCountingAction(const MoveCountingAction&) = delete;
  void operator()() const { ++*calls; }
};
}  // namespace

TEST(EventQueueTest, ActionsAreRelocatedExactlyOncePerEvent) {
  // Insertion steps shift only 16-byte (when, seq|slot) records; actions
  // live in a stable slot arena and run in place. schedule_at takes the
  // closure as a template argument and builds it in its slot, so a
  // scheduled closure is move-constructed exactly once however often the
  // records shift: from the caller's temporary into the slot.
  EventQueue q;
  int moves = 0;
  int calls = 0;
  constexpr int kTracked = 64;
  // Interleave tracked events with filler at descending times, earlier than
  // every tracked one: each filler record lands at the back of the run, and
  // each later tracked event walks past every filler record. That forces
  // repeated growth of the run and of the slot table.
  for (int i = 0; i < kTracked; ++i) {
    q.schedule_at(TimePoint::from_ns(10'000 + i), MoveCountingAction{&moves, &calls});
    for (int j = 0; j < 50; ++j) {
      q.schedule_at(TimePoint::from_ns(5'000 - i * 50 - j), [] {});
    }
  }
  EXPECT_EQ(moves, kTracked);  // no relocations at schedule-heavy time
  q.run();
  EXPECT_EQ(calls, kTracked);
  EXPECT_EQ(moves, kTracked);  // and none during insertion or execution
}

namespace {
/// Counts the destruction of the one instance that owns the action (moved-
/// from shells do not count).
struct ThrowingAction {
  int* destroyed;
  bool owner{true};
  explicit ThrowingAction(int* d) : destroyed{d} {}
  ThrowingAction(ThrowingAction&& other) noexcept : destroyed{other.destroyed} {
    other.owner = false;
  }
  ThrowingAction(const ThrowingAction&) = delete;
  ~ThrowingAction() {
    if (owner) ++*destroyed;
  }
  void operator()() const { throw std::runtime_error{"action failed"}; }
};
}  // namespace

TEST(EventQueueTest, ThrowingActionIsDestroyedOnce) {
  // The campaign's quarantine path catches a run's exception and tears the
  // run down: the action that threw must be destroyed exactly once, by the
  // queue's teardown, not by the failed call and again later.
  int destroyed = 0;
  {
    EventQueue q;
    q.schedule_after(Duration::millis(1), ThrowingAction{&destroyed});
    EXPECT_THROW(q.step(), std::runtime_error);
    EXPECT_EQ(destroyed, 0) << "the failed call destroyed its action";
    EXPECT_TRUE(q.empty());
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(RngTest, NamedStreamsAreDeterministic) {
  const SeedSequence a{42};
  const SeedSequence b{42};
  Rng r1 = a.stream("wifi.loss");
  Rng r2 = b.stream("wifi.loss");
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r1.uniform(), r2.uniform());
}

TEST(RngTest, DifferentNamesDecorrelate) {
  const SeedSequence s{42};
  EXPECT_NE(s.seed_for("a"), s.seed_for("b"));
  EXPECT_NE(s.seed_for("a"), s.seed_for("a "));
}

TEST(RngTest, DifferentMasterSeedsDiffer) {
  EXPECT_NE(SeedSequence{1}.seed_for("x"), SeedSequence{2}.seed_for("x"));
}

TEST(RngTest, UniformInRange) {
  Rng r{7};
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng r{7};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(RngTest, ChanceFrequency) {
  Rng r{7};
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng r{11};
  double sum = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / kTrials, 5.0, 0.25);
}

TEST(RngTest, LognormalMedian) {
  Rng r{13};
  std::vector<double> v;
  for (int i = 0; i < 20001; ++i) v.push_back(r.lognormal_median(3.0, 0.8));
  std::sort(v.begin(), v.end());
  EXPECT_NEAR(v[v.size() / 2], 3.0, 0.15);
}

TEST(RngTest, ParetoBounds) {
  Rng r{17};
  for (int i = 0; i < 1000; ++i) EXPECT_GE(r.pareto(1.5, 2.0), 2.0);
}

// --- RngSequence: the hand-inlined fast paths in sim::Rng must reproduce
// libstdc++'s distribution objects bit for bit — same engine draws, same
// floating-point results. Each test runs Rng against a *fresh-per-call*
// std:: distribution object on an identically seeded mt19937_64 and
// EXPECT_EQ's the doubles (no tolerance: these are sequence pins, not
// statistics). If any of these fail after a toolchain or Rng change,
// simulation outputs are no longer comparable across PRs.

TEST(RngSequence, UniformMatchesStdUniformReal) {
  Rng r{12345};
  std::mt19937_64 eng{12345};
  for (int i = 0; i < 10000; ++i) {
    std::uniform_real_distribution<double> dist{0.0, 1.0};
    EXPECT_EQ(r.uniform(), dist(eng)) << "draw " << i;
  }
}

TEST(RngSequence, UniformRangeMatchesStdUniformReal) {
  Rng r{777};
  std::mt19937_64 eng{777};
  for (int i = 0; i < 10000; ++i) {
    std::uniform_real_distribution<double> dist{-3.5, 12.25};
    EXPECT_EQ(r.uniform(-3.5, 12.25), dist(eng)) << "draw " << i;
  }
}

TEST(RngSequence, ChanceMatchesStdBernoulli) {
  Rng r{999};
  std::mt19937_64 eng{999};
  for (int i = 0; i < 10000; ++i) {
    std::bernoulli_distribution dist{0.37};
    EXPECT_EQ(r.chance(0.37), dist(eng)) << "draw " << i;
  }
  // The engines must still be in lockstep (same number of raw draws).
  EXPECT_EQ(r.engine()(), eng());
}

TEST(RngSequence, BernoulliGateMatchesChance) {
  Rng ra{4242};
  Rng rb{4242};
  const BernoulliGate gate{0.37};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(gate.sample(ra), rb.chance(0.37)) << "draw " << i;
  }
  EXPECT_EQ(ra.engine()(), rb.engine()());
  // Degenerate probabilities never touch the engine in either form.
  Rng rc{1};
  const BernoulliGate never{0.0};
  const BernoulliGate always{1.0};
  EXPECT_FALSE(never.sample(rc));
  EXPECT_TRUE(always.sample(rc));
  EXPECT_FALSE(never.draws());
  EXPECT_FALSE(always.draws());
  EXPECT_EQ(rc.engine()(), std::mt19937_64{1}());
}

TEST(RngSequence, ExponentialMatchesStdExponential) {
  Rng r{31337};
  std::mt19937_64 eng{31337};
  for (int i = 0; i < 10000; ++i) {
    std::exponential_distribution<double> dist{1.0 / 5.0};
    EXPECT_EQ(r.exponential(5.0), dist(eng)) << "draw " << i;
  }
}

TEST(RngSequence, NormalMatchesFreshStdNormal) {
  Rng r{2718};
  std::mt19937_64 eng{2718};
  for (int i = 0; i < 10000; ++i) {
    // Fresh object per call: the polar method's spare deviate is discarded,
    // which is the simulator's historical (and default) draw pattern.
    std::normal_distribution<double> dist{1.5, 2.0};
    EXPECT_EQ(r.normal(1.5, 2.0), dist(eng)) << "draw " << i;
  }
  EXPECT_EQ(r.engine()(), eng());
}

TEST(RngSequence, LognormalMatchesFreshStdLognormal) {
  Rng r{1618};
  std::mt19937_64 eng{1618};
  const double median = 3.0;
  const double sigma = 0.8;
  for (int i = 0; i < 10000; ++i) {
    std::lognormal_distribution<double> dist{std::log(median), sigma};
    EXPECT_EQ(r.lognormal_median(median, sigma), dist(eng)) << "draw " << i;
  }
  EXPECT_EQ(r.engine()(), eng());
}

TEST(RngSequence, LazyEngineMatchesStdEngine) {
  // Mt19937_64 seeds and twists its first round in blocks as draws reach
  // them. Cut each seed's stream around the block, half-round and round
  // boundaries, copy the engine there (a copy carries only the seeded
  // words), and continue original and copy well into the third round.
  constexpr int kCuts[] = {0, 1, 155, 156, 157, 311, 312, 313, 700};
  for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{42},
                                   ~std::uint64_t{0}}) {
    for (const int cut : kCuts) {
      Mt19937_64 lazy{seed};
      std::mt19937_64 ref{seed};
      for (int i = 0; i < cut; ++i) ASSERT_EQ(lazy(), ref()) << "seed " << seed << " draw " << i;
      Mt19937_64 copy{lazy};
      std::mt19937_64 ref_copy{ref};
      for (int i = 0; i < 2000; ++i) {
        const std::uint64_t want = ref();
        ASSERT_EQ(lazy(), want) << "seed " << seed << " cut " << cut << " draw " << i;
        ASSERT_EQ(copy(), ref_copy()) << "seed " << seed << " copy at " << cut << " draw " << i;
      }
    }
  }
}

TEST(RngSequence, ShuffleThroughEngineMatchesStd) {
  // run_series shuffles its cell order through engine(); std::shuffle reads
  // only the engine's range and its draws.
  std::vector<int> a(1000);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<int>(i);
  std::vector<int> b = a;
  Rng r{2024};
  std::mt19937_64 ref{2024};
  std::shuffle(a.begin(), a.end(), r.engine());
  std::shuffle(b.begin(), b.end(), ref);
  EXPECT_EQ(a, b);
  EXPECT_EQ(r.engine()(), ref());
}

TEST(RngSequence, CanonicalMatchesStaticCast) {
  // The branch-free conversion must round every word exactly as
  // static_cast<double> does (round to nearest, ties to even), and clamp
  // the words that round up to 2^64.
  const auto reference = [](std::uint64_t z) {
    const double r = static_cast<double>(z) * 0x1p-64;
    return r >= 1.0 ? std::nextafter(1.0, 0.0) : r;
  };
  constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
  // Above 2^63 a double's ulp is 0x800: +0x3FF rounds down, +0x400 ties to
  // the even 2^63, +0x401 rounds up, +0xC00 ties up to the even neighbour.
  // 2^53 + 1 is the first integer a double cannot hold.
  for (const std::uint64_t z :
       {std::uint64_t{0}, std::uint64_t{1}, kTop, kTop + 1, kTop + 0x3FF, kTop + 0x400,
        kTop + 0x401, kTop + 0xC00, (std::uint64_t{1} << 53) + 1, ~std::uint64_t{0} - 0x400,
        ~std::uint64_t{0} - 0x3FF, ~std::uint64_t{0}}) {
    EXPECT_EQ(Rng::canonical_of(z), reference(z)) << std::hex << z;
  }
  EXPECT_EQ(Rng::canonical_of(~std::uint64_t{0}), std::nextafter(1.0, 0.0));
  std::mt19937_64 words{99};
  int mismatches = 0;
  for (int i = 0; i < 10'000'000; ++i) {
    const std::uint64_t z = words();
    if (Rng::canonical_of(z) != reference(z)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(RngSequence, LogMedianFormMatchesMedianForm) {
  Rng ra{555};
  Rng rb{555};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(ra.lognormal_median(3.0, 0.8), rb.lognormal_log_median(std::log(3.0), 0.8));
  }
}

TEST(ParallelForIndex, ThrowRethrownAtLowestIndexEveryJobCount) {
  for (const unsigned jobs : {1u, 3u, 8u}) {
    std::vector<std::atomic<int>> hits(57);
    try {
      parallel_for_index(hits.size(), jobs, [&hits](std::size_t i) {
        ++hits[i];
        if (i == 11 || i == 40) throw std::runtime_error{"idx " + std::to_string(i)};
      });
      FAIL() << "expected a rethrow at jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      // Schedule-invariant: the *lowest* failing index wins regardless of
      // which worker observed its throw first.
      EXPECT_STREQ(e.what(), "idx 11") << "jobs=" << jobs;
    }
    // Every index still ran, including those past the failing ones.
    for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForIndex, CoversEachIndexExactlyOnce) {
  for (const unsigned jobs : {1u, 3u, 8u}) {
    std::vector<std::atomic<int>> hits(57);
    parallel_for_index(hits.size(), jobs, [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForIndex, SerialPathPreservesIndexOrder) {
  std::vector<std::size_t> order;
  parallel_for_index(10, 1, [&order](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(EffectiveJobs, ExplicitRequestWins) {
  EXPECT_EQ(effective_jobs(3), 3u);
  EXPECT_EQ(effective_jobs(1), 1u);
  EXPECT_GE(effective_jobs(0), 1u);  // env or hardware_concurrency, never 0
}

TEST(SimulationTest, SchedulingHelpers) {
  Simulation sim{1};
  int count = 0;
  sim.after(Duration::millis(1), [&] { ++count; });
  const EventId id = sim.after(Duration::millis(2), [&] { ++count; });
  sim.events().cancel(id);
  sim.run();
  EXPECT_EQ(count, 1);
}

TEST(SimulationTest, RunForAdvancesRelative) {
  Simulation sim{1};
  sim.run_for(Duration::millis(10));
  sim.run_for(Duration::millis(10));
  EXPECT_EQ(sim.now().to_millis(), 20.0);
}

TEST(SimulationTest, RunWhileChecksPredicateBetweenEvents) {
  Simulation sim{1};
  int fired = 0;
  int checks = 0;
  for (int i = 1; i <= 5; ++i) sim.at(TimePoint::from_ns(i * 100), [&] { ++fired; });
  sim.run_while([&] {
    ++checks;
    return fired < 3;
  });
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(checks, 4);  // before each of the three events, then the refusal
  EXPECT_EQ(sim.now(), TimePoint::from_ns(300));
  EXPECT_EQ(sim.events().pending(), 2u);
}

TEST(SimulationTest, RunWhileStopsBeforeTheFirstEventPastTheDeadline) {
  Simulation sim{1};
  std::vector<int> order;
  int checks = 0;
  sim.at(TimePoint::from_ns(100), [&] { order.push_back(1); });
  sim.at(TimePoint::from_ns(200), [&] { order.push_back(2); });
  sim.at(TimePoint::from_ns(300), [&] { order.push_back(3); });
  sim.run_while(
      [&] {
        ++checks;
        return true;
      },
      TimePoint::from_ns(200));
  // run_until's rule: the event at the deadline runs, the one after it does
  // not, and the clock stays at the last event that ran. The predicate is
  // asked before each event and once more before the refused step.
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(checks, 3);
  EXPECT_EQ(sim.now(), TimePoint::from_ns(200));
  EXPECT_EQ(sim.events().pending(), 1u);
  // The bounded step itself: nothing is due by 250, the event at 300 is.
  EXPECT_FALSE(sim.events().step(TimePoint::from_ns(250)));
  EXPECT_EQ(sim.now(), TimePoint::from_ns(200));
  EXPECT_TRUE(sim.events().step(TimePoint::from_ns(300)));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationTest, RunWhileReturnsWhenQueueDrains) {
  Simulation sim{1};
  int fired = 0;
  sim.after(Duration::millis(1), [&] { ++fired; });
  sim.after(Duration::millis(2), [&] { ++fired; });
  sim.run_while([] { return true; });
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(sim.events().empty());
  EXPECT_EQ(sim.now(), TimePoint::origin() + Duration::millis(2));
}

// --- Timer: the one handle a component keeps on its pending event.

TEST(TimerTest, RearmCancelsThePendingEvent) {
  Simulation sim{1};
  Timer timer{sim};
  std::vector<TimePoint> ran;
  timer.arm_at(TimePoint::from_ns(100), [&] { ran.push_back(sim.now()); });
  EXPECT_EQ(sim.events().pending(), 1u);
  timer.arm_at(TimePoint::from_ns(200), [&] { ran.push_back(sim.now()); });
  EXPECT_EQ(sim.events().pending(), 1u);
  EXPECT_TRUE(timer.armed());
  sim.run();
  EXPECT_EQ(ran, (std::vector<TimePoint>{TimePoint::from_ns(200)}));
  EXPECT_FALSE(timer.armed());
}

TEST(TimerTest, FiredTimerIsDisarmedInItsCallbackAndMayRearm) {
  Simulation sim{1};
  Timer timer{sim};
  std::vector<std::int64_t> fired_at;
  struct Tick {
    Simulation* sim;
    Timer* timer;
    std::vector<std::int64_t>* fired_at;
    void operator()() const {
      EXPECT_FALSE(timer->armed()) << "the event forgets itself before the closure runs";
      fired_at->push_back(sim->now().ns());
      if (fired_at->size() < 3) timer->arm_after(Duration::nanos(10), *this);
    }
  };
  timer.arm_at(TimePoint::from_ns(10), Tick{&sim, &timer, &fired_at});
  sim.run();
  EXPECT_EQ(fired_at, (std::vector<std::int64_t>{10, 20, 30}));
  EXPECT_FALSE(timer.armed());
  EXPECT_TRUE(sim.events().empty());
}

TEST(TimerTest, EachArmDrawsOneSeqInCallOrder) {
  Simulation sim{1};
  Timer first{sim};
  Timer second{sim};
  std::vector<int> order;
  // Same instant: FIFO by schedule order, timer or not.
  const TimePoint t = TimePoint::from_ns(100);
  first.arm_at(t, [&] { order.push_back(0); });
  sim.at(t, [&] { order.push_back(1); });
  second.arm_at(t, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  // A re-arm draws a fresh seq: the timer now runs after the plain event.
  order.clear();
  const TimePoint t2 = TimePoint::from_ns(200);
  first.arm_at(t2, [&] { order.push_back(0); });
  sim.at(t2, [&] { order.push_back(1); });
  first.arm_at(t2, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(TimerTest, DestroyingAnArmedTimerCancelsIt) {
  Simulation sim{1};
  bool ran = false;
  {
    Timer timer{sim};
    timer.arm_after(Duration::millis(1), [&] { ran = true; });
    EXPECT_EQ(sim.events().pending(), 1u);
  }
  EXPECT_EQ(sim.events().pending(), 0u);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(TimerTest, CancelAfterFireLeavesTheSlotsNextOccupantAlone) {
  Simulation sim{1};
  Timer timer{sim};
  int timer_runs = 0;
  timer.arm_at(TimePoint::from_ns(10), [&] { ++timer_runs; });
  sim.run();  // fires; its slot goes back to the free list
  bool ran = false;
  sim.at(TimePoint::from_ns(20), [&] { ran = true; });  // takes that slot
  timer.cancel();
  EXPECT_EQ(sim.events().pending(), 1u);
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(timer_runs, 1);
}

}  // namespace
}  // namespace mpr::sim
