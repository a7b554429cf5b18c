// MPTCP core tests: the connection-level reorder buffer, subflow
// establishment (delayed vs simultaneous SYN, ADD_ADDR joins), DSS
// data-level transfer, scheduler behaviour, penalization and reinjection.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "app/http.h"
#include "core/connection.h"
#include "core/reorder_buffer.h"
#include "core/server.h"
#include "experiment/testbed.h"
#include "sim/rng.h"

namespace mpr::core {
namespace {

using experiment::kClientCellAddr;
using experiment::kClientWifiAddr;
using experiment::kHttpPort;
using experiment::kServerAddr1;
using experiment::kServerAddr2;

// --------------------------------------------------------------------------
// ReorderBuffer.

sim::TimePoint at_ms(double ms) {
  return sim::TimePoint::origin() + sim::Duration::from_millis(ms);
}

TEST(ReorderBuffer, InOrderArrivalsHaveZeroDelay) {
  ReorderBuffer rb{1 << 20};
  std::uint64_t delivered = 0;
  rb.on_deliver = [&](std::uint64_t, std::uint32_t len) { delivered += len; };
  EXPECT_TRUE(rb.insert(0, 1000, at_ms(1), 0));
  EXPECT_TRUE(rb.insert(1000, 1000, at_ms(2), 0));
  EXPECT_EQ(delivered, 2000u);
  EXPECT_EQ(rb.rcv_nxt(), 2000u);
  ASSERT_EQ(rb.ofo_samples().size(), 2u);
  EXPECT_EQ(rb.ofo_samples()[0].delay, sim::Duration::zero());
  EXPECT_EQ(rb.ofo_samples()[1].delay, sim::Duration::zero());
}

TEST(ReorderBuffer, OutOfOrderDelayMeasuredUntilInOrder) {
  ReorderBuffer rb{1 << 20};
  rb.insert(1000, 1000, at_ms(5), 1);   // early packet from fast path
  EXPECT_EQ(rb.rcv_nxt(), 0u);
  EXPECT_EQ(rb.buffered_bytes(), 1000u);
  rb.insert(0, 1000, at_ms(47), 0);     // late packet from slow path
  EXPECT_EQ(rb.rcv_nxt(), 2000u);
  ASSERT_EQ(rb.ofo_samples().size(), 2u);
  // The late packet itself was in order on arrival.
  EXPECT_EQ(rb.ofo_samples()[0].delay, sim::Duration::zero());
  EXPECT_EQ(rb.ofo_samples()[0].subflow_id, 0);
  // The early packet waited 42 ms.
  EXPECT_NEAR(rb.ofo_samples()[1].delay.to_millis(), 42.0, 1e-9);
  EXPECT_EQ(rb.ofo_samples()[1].subflow_id, 1);
}

TEST(ReorderBuffer, DrainsMultipleHeldSegments) {
  ReorderBuffer rb{1 << 20};
  std::vector<std::uint64_t> order;
  rb.on_deliver = [&](std::uint64_t dsn, std::uint32_t) { order.push_back(dsn); };
  rb.insert(2000, 1000, at_ms(1), 1);
  rb.insert(1000, 1000, at_ms(2), 1);
  rb.insert(3000, 1000, at_ms(3), 1);
  EXPECT_TRUE(order.empty());
  rb.insert(0, 1000, at_ms(10), 0);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1000, 2000, 3000}));
  EXPECT_EQ(rb.buffered_bytes(), 0u);
}

TEST(ReorderBuffer, DuplicatesDetected) {
  ReorderBuffer rb{1 << 20};
  rb.insert(0, 1000, at_ms(1), 0);
  EXPECT_TRUE(rb.insert(0, 1000, at_ms(2), 0));  // already delivered
  EXPECT_EQ(rb.duplicate_packets(), 1u);
  rb.insert(2000, 1000, at_ms(3), 1);
  EXPECT_TRUE(rb.insert(2000, 1000, at_ms(4), 1));  // already held
  EXPECT_EQ(rb.duplicate_packets(), 2u);
  EXPECT_EQ(rb.delivered_bytes(), 1000u);
}

TEST(ReorderBuffer, RefusesBeyondCapacity) {
  ReorderBuffer rb{2500};
  EXPECT_TRUE(rb.insert(1000, 1000, at_ms(1), 0));
  EXPECT_TRUE(rb.insert(2000, 1000, at_ms(1), 0));
  EXPECT_FALSE(rb.insert(3000, 1000, at_ms(1), 0));  // 3000 > 2500
  EXPECT_EQ(rb.window(), 500u);
}

TEST(ReorderBuffer, WindowShrinksWithHeldBytes) {
  ReorderBuffer rb{10000};
  EXPECT_EQ(rb.window(), 10000u);
  rb.insert(5000, 2000, at_ms(1), 0);
  EXPECT_EQ(rb.window(), 8000u);
  rb.insert(0, 5000, at_ms(2), 0);  // drains everything
  EXPECT_EQ(rb.window(), 10000u);
}

TEST(ReorderBuffer, TracksPeakOccupancy) {
  ReorderBuffer rb{1 << 20};
  rb.insert(1000, 1000, at_ms(1), 0);
  rb.insert(3000, 1000, at_ms(1), 0);
  rb.insert(0, 1000, at_ms(2), 0);
  EXPECT_EQ(rb.max_buffered_bytes(), 2000u);
}

// Regression: a segment straddling rcv_nxt (dsn < rcv_nxt < dsn+len) was
// neither duplicate-detected nor drainable, so it occupied buffer bytes
// forever and shrank the advertised window. The overlap must be trimmed and
// the fresh tail delivered.
TEST(ReorderBuffer, SegmentStraddlingRcvNxtTrimmedAndDelivered) {
  ReorderBuffer rb{1 << 20};
  std::vector<std::pair<std::uint64_t, std::uint32_t>> delivered;
  rb.on_deliver = [&](std::uint64_t dsn, std::uint32_t len) { delivered.emplace_back(dsn, len); };
  rb.insert(0, 1000, at_ms(1), 0);
  // Differently-chunked retransmission: [500, 1500) overlaps delivered data.
  EXPECT_TRUE(rb.insert(500, 1000, at_ms(2), 1));
  EXPECT_EQ(rb.rcv_nxt(), 1500u);
  EXPECT_EQ(rb.delivered_bytes(), 1500u);
  EXPECT_EQ(rb.buffered_bytes(), 0u) << "overlap segment must not be held forever";
  EXPECT_EQ(rb.window(), 1u << 20);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[1], (std::pair<std::uint64_t, std::uint32_t>{1000u, 500u}));
  EXPECT_EQ(rb.duplicate_packets(), 1u);  // the partially-duplicate arrival
}

TEST(ReorderBuffer, StraddlingSegmentUnblocksHeldData) {
  ReorderBuffer rb{1 << 20};
  rb.insert(0, 1000, at_ms(1), 0);
  rb.insert(1500, 1000, at_ms(2), 1);  // held: needs [1000, 1500)
  EXPECT_EQ(rb.buffered_bytes(), 1000u);
  // The gap arrives inside a segment that also re-covers [500, 1000).
  EXPECT_TRUE(rb.insert(500, 1000, at_ms(3), 0));
  EXPECT_EQ(rb.rcv_nxt(), 2500u);
  EXPECT_EQ(rb.delivered_bytes(), 2500u);
  EXPECT_EQ(rb.buffered_bytes(), 0u);
}

TEST(ReorderBuffer, HeldSegmentOverlappedByDeliveryIsTrimmedOnDrain) {
  ReorderBuffer rb{1 << 20};
  std::uint64_t delivered = 0;
  rb.on_deliver = [&](std::uint64_t, std::uint32_t len) { delivered += len; };
  rb.insert(1000, 1000, at_ms(1), 1);  // held [1000, 2000)
  // An in-order segment covering [0, 1500) overlaps the held one's head.
  EXPECT_TRUE(rb.insert(0, 1500, at_ms(2), 0));
  EXPECT_EQ(rb.rcv_nxt(), 2000u);
  EXPECT_EQ(delivered, 2000u) << "held tail [1500,2000) must drain, not stall";
  EXPECT_EQ(rb.buffered_bytes(), 0u);
}

TEST(ReorderBuffer, HeldSegmentFullyCoveredByDeliveryIsDropped) {
  ReorderBuffer rb{1 << 20};
  rb.insert(1000, 500, at_ms(1), 1);  // held [1000, 1500)
  EXPECT_TRUE(rb.insert(0, 1500, at_ms(2), 0));
  EXPECT_EQ(rb.rcv_nxt(), 1500u);
  EXPECT_EQ(rb.delivered_bytes(), 1500u);
  EXPECT_EQ(rb.buffered_bytes(), 0u);
  EXPECT_EQ(rb.duplicate_packets(), 1u);
}

// --------------------------------------------------------------------------
// Differential test: ReorderBuffer against a reference copy of the
// std::map-keyed algorithm it replaced, fed identical arrivals.

class MapReorderBuffer {
 public:
  explicit MapReorderBuffer(std::uint64_t capacity) : capacity_{capacity} {}

  std::function<void(std::uint64_t, std::uint32_t)> on_deliver;

  bool insert(std::uint64_t dsn, std::uint32_t len, sim::TimePoint arrival,
              std::uint8_t subflow_id) {
    if (len == 0) return true;
    if (dsn + len <= rcv_nxt_ || held_.contains(dsn)) {
      ++duplicates_;
      return true;
    }
    if (dsn < rcv_nxt_) {
      const auto overlap = static_cast<std::uint32_t>(rcv_nxt_ - dsn);
      ++duplicates_;
      dsn = rcv_nxt_;
      len -= overlap;
      if (held_.contains(dsn)) return true;
    }
    if (dsn == rcv_nxt_) {
      samples_.push_back(OfoSample{sim::Duration::zero(), subflow_id, len});
      rcv_nxt_ += len;
      if (on_deliver) on_deliver(dsn, len);
      while (!held_.empty()) {
        auto it = held_.begin();
        if (it->first > rcv_nxt_) break;
        const std::uint64_t held_dsn = it->first;
        const Held h = it->second;
        buffered_bytes_ -= h.len;
        held_.erase(it);
        if (held_dsn + h.len <= rcv_nxt_) {
          ++duplicates_;
          continue;
        }
        const auto overlap = static_cast<std::uint32_t>(rcv_nxt_ - held_dsn);
        const std::uint32_t fresh = h.len - overlap;
        samples_.push_back(OfoSample{arrival - h.arrival, h.subflow_id, fresh});
        const std::uint64_t deliver_at = rcv_nxt_;
        rcv_nxt_ += fresh;
        if (on_deliver) on_deliver(deliver_at, fresh);
      }
      return true;
    }
    if (buffered_bytes_ + len > capacity_) return false;
    held_.emplace(dsn, Held{len, arrival, subflow_id});
    buffered_bytes_ += len;
    max_buffered_ = std::max(max_buffered_, buffered_bytes_);
    return true;
  }

  [[nodiscard]] std::uint64_t rcv_nxt() const { return rcv_nxt_; }
  [[nodiscard]] std::uint64_t buffered_bytes() const { return buffered_bytes_; }
  [[nodiscard]] std::uint64_t window() const {
    return capacity_ > buffered_bytes_ ? capacity_ - buffered_bytes_ : 0;
  }
  [[nodiscard]] std::uint64_t duplicate_packets() const { return duplicates_; }
  [[nodiscard]] std::uint64_t max_buffered_bytes() const { return max_buffered_; }
  [[nodiscard]] const std::vector<OfoSample>& ofo_samples() const { return samples_; }
  /// Highest held DSN, or nullopt when nothing is held.
  [[nodiscard]] std::optional<std::uint64_t> back_dsn() const {
    if (held_.empty()) return std::nullopt;
    return held_.rbegin()->first;
  }

 private:
  struct Held {
    std::uint32_t len{0};
    sim::TimePoint arrival;
    std::uint8_t subflow_id{0};
  };
  std::uint64_t capacity_;
  std::uint64_t rcv_nxt_{0};
  std::map<std::uint64_t, Held> held_;
  std::uint64_t buffered_bytes_{0};
  std::uint64_t max_buffered_{0};
  std::uint64_t duplicates_{0};
  std::vector<OfoSample> samples_;
};

struct Arrival {
  std::uint64_t dsn{0};
  std::uint32_t len{0};
  std::int64_t at_us{0};
  std::uint8_t subflow{0};
};

/// Feeds the same arrivals to a ReorderBuffer and to the map reference and
/// compares everything observable after every insert.
class ReorderDiff {
 public:
  explicit ReorderDiff(std::uint64_t capacity) : flat_{capacity}, ref_{capacity} {
    flat_.on_deliver = [this](std::uint64_t dsn, std::uint32_t len) {
      flat_out_.emplace_back(dsn, len);
    };
    ref_.on_deliver = [this](std::uint64_t dsn, std::uint32_t len) {
      ref_out_.emplace_back(dsn, len);
    };
  }

  /// Offers `a` to both buffers; `accepted` is the flat buffer's answer.
  ::testing::AssertionResult offer(const Arrival& a, bool& accepted) {
    const sim::TimePoint at = sim::TimePoint::origin() + sim::Duration::micros(a.at_us);
    const std::optional<std::uint64_t> back = ref_.back_dsn();
    if (a.dsn > ref_.rcv_nxt() && back && a.dsn < *back) ++mid_inserts_;
    accepted = flat_.insert(a.dsn, a.len, at, a.subflow);
    const bool ref_accepted = ref_.insert(a.dsn, a.len, at, a.subflow);
    if (!ref_accepted) ++refusals_;
    const auto fail = [&a](const char* what, auto flat, auto ref) {
      return ::testing::AssertionFailure()
             << what << " diverged after insert(dsn=" << a.dsn << ", len=" << a.len
             << ", t=" << a.at_us << "us, sf=" << int{a.subflow} << "): flat " << flat
             << ", reference " << ref;
    };
    if (accepted != ref_accepted) return fail("return value", accepted, ref_accepted);
    if (flat_.rcv_nxt() != ref_.rcv_nxt()) return fail("rcv_nxt", flat_.rcv_nxt(), ref_.rcv_nxt());
    if (flat_.buffered_bytes() != ref_.buffered_bytes()) {
      return fail("buffered_bytes", flat_.buffered_bytes(), ref_.buffered_bytes());
    }
    if (flat_.window() != ref_.window()) return fail("window", flat_.window(), ref_.window());
    if (flat_.duplicate_packets() != ref_.duplicate_packets()) {
      return fail("duplicate_packets", flat_.duplicate_packets(), ref_.duplicate_packets());
    }
    if (flat_.max_buffered_bytes() != ref_.max_buffered_bytes()) {
      return fail("max_buffered_bytes", flat_.max_buffered_bytes(), ref_.max_buffered_bytes());
    }
    if (flat_.delivered_bytes() != ref_.rcv_nxt()) {
      return fail("delivered_bytes", flat_.delivered_bytes(), ref_.rcv_nxt());
    }
    if (flat_out_.size() != ref_out_.size()) {
      return fail("on_deliver count", flat_out_.size(), ref_out_.size());
    }
    for (; checked_out_ < flat_out_.size(); ++checked_out_) {
      if (flat_out_[checked_out_] != ref_out_[checked_out_]) {
        return fail("on_deliver dsn", flat_out_[checked_out_].first,
                    ref_out_[checked_out_].first);
      }
    }
    const auto& fs = flat_.ofo_samples();
    const auto& rs = ref_.ofo_samples();
    if (fs.size() != rs.size()) return fail("ofo_samples size", fs.size(), rs.size());
    for (; checked_samples_ < fs.size(); ++checked_samples_) {
      const OfoSample& f = fs[checked_samples_];
      const OfoSample& r = rs[checked_samples_];
      if (f.delay != r.delay) return fail("sample delay (ns)", f.delay.ns(), r.delay.ns());
      if (f.subflow_id != r.subflow_id) {
        return fail("sample subflow_id", int{f.subflow_id}, int{r.subflow_id});
      }
      if (f.len != r.len) return fail("sample len", f.len, r.len);
    }
    return ::testing::AssertionSuccess();
  }

  /// Offers arrivals in order. A refused one waits until the window has
  /// room for it (or it is in order) and is then offered again at once, as
  /// a sender respecting the advertised window would retransmit it.
  ::testing::AssertionResult replay(const std::vector<Arrival>& arrivals) {
    std::vector<Arrival> blocked;
    bool accepted = false;
    for (const Arrival& a : arrivals) {
      if (auto r = offer(a, accepted); !r) return r;
      if (!accepted) blocked.push_back(a);
      for (auto it = blocked.begin(); it != blocked.end();) {
        if (it->dsn > flat_.rcv_nxt() && it->len > flat_.window()) {
          ++it;
          continue;
        }
        Arrival retry = *it;
        retry.at_us = a.at_us;
        blocked.erase(it);
        if (auto r = offer(retry, accepted); !r) return r;
        if (!accepted) return ::testing::AssertionFailure() << "refused with room";
        it = blocked.begin();  // the delivery may have made room for earlier ones
      }
    }
    if (!blocked.empty()) {
      return ::testing::AssertionFailure() << blocked.size() << " arrivals never fit";
    }
    return ::testing::AssertionSuccess();
  }

  [[nodiscard]] const ReorderBuffer& flat() const { return flat_; }
  [[nodiscard]] std::size_t mid_inserts() const { return mid_inserts_; }
  [[nodiscard]] std::size_t refusals() const { return refusals_; }

 private:
  ReorderBuffer flat_;
  MapReorderBuffer ref_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> flat_out_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ref_out_;
  std::size_t checked_out_{0};
  std::size_t checked_samples_{0};
  std::size_t mid_inserts_{0};
  std::size_t refusals_{0};
};

/// Two paths striped over the DSN space, the second lagging the first by
/// 30-50 ms. On top: holes on the lagging path filled ~50 segments later,
/// exact duplicates on the other path, and re-chunked retransmissions that
/// straddle rcv_nxt or overlap held segments. Returns arrivals and the
/// stream length in bytes.
std::pair<std::vector<Arrival>, std::uint64_t> lagged_two_path_arrivals(std::uint64_t seed,
                                                                        std::size_t segments) {
  sim::Rng rng{seed};
  std::vector<Arrival> v;
  std::int64_t last[2] = {0, 0};
  std::uint64_t dsn = 0;
  for (std::size_t i = 0; i < segments; ++i) {
    const auto len = static_cast<std::uint32_t>(rng.chance(0.1) ? rng.uniform_int(100, 1400) : 1400);
    const std::uint8_t path = rng.chance(0.6) ? 0 : 1;
    const auto send_us = static_cast<std::int64_t>(i) * 100;
    const double owd_us = path == 0 ? rng.uniform(10'000, 12'000) : rng.uniform(40'000, 60'000);
    const std::int64_t at = std::max(send_us + static_cast<std::int64_t>(owd_us), last[path]);
    last[path] = at;
    if (path == 1 && rng.chance(0.01)) {
      // Lost on the lagging path; its retransmission arrives ~50 segments on.
      v.push_back(Arrival{dsn, len, at + 5'000 + rng.uniform_int(0, 2'000), 1});
    } else {
      v.push_back(Arrival{dsn, len, at, path});
    }
    if (rng.chance(0.01)) {
      v.push_back(Arrival{dsn, len, at + rng.uniform_int(0, 30'000),
                          static_cast<std::uint8_t>(1 - path)});
    }
    if (rng.chance(0.01)) {
      const auto back = static_cast<std::uint64_t>(rng.uniform_int(0, 4'000));
      v.push_back(Arrival{dsn > back ? dsn - back : 0,
                          static_cast<std::uint32_t>(rng.uniform_int(500, 5'000)),
                          at + rng.uniform_int(0, 50'000), path});
    }
    dsn += len;
  }
  std::stable_sort(v.begin(), v.end(),
                   [](const Arrival& a, const Arrival& b) { return a.at_us < b.at_us; });
  return {v, dsn};
}

TEST(ReorderBufferDiff, MatchesMapReferenceOnLaggedTwoPathArrivals) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 7u}) {
    const auto [arrivals, total] = lagged_two_path_arrivals(seed, 6000);
    ReorderDiff diff{64u << 20};
    ASSERT_TRUE(diff.replay(arrivals)) << "seed " << seed;
    EXPECT_EQ(diff.flat().rcv_nxt(), total) << "seed " << seed;
    EXPECT_EQ(diff.flat().buffered_bytes(), 0u) << "seed " << seed;
    EXPECT_GT(diff.mid_inserts(), 0u) << "seed " << seed;
    EXPECT_GT(diff.flat().duplicate_packets(), 0u) << "seed " << seed;
  }
}

TEST(ReorderBufferDiff, MatchesMapReferenceWhenCapacityRefusesHolds) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 7u}) {
    const auto [arrivals, total] = lagged_two_path_arrivals(seed, 6000);
    ReorderDiff diff{300 * 1400};
    ASSERT_TRUE(diff.replay(arrivals)) << "seed " << seed;
    EXPECT_EQ(diff.flat().rcv_nxt(), total) << "seed " << seed;
    EXPECT_GT(diff.refusals(), 0u) << "seed " << seed;
  }
}

/// Segment k of a 1000-byte grid, arriving at k ms on subflow 1.
Arrival grid(std::uint64_t k) {
  return Arrival{k * 1000, 1000, static_cast<std::int64_t>(k) * 1000, 1};
}

TEST(ReorderBufferDiff, MidInsertAfterSixteenFrontPops) {
  // Hold 1..19, 21..25 and 27..30 behind a hole at 0: filling it pops 19
  // records off the front (FlatDeque compacts at the 16th), leaving 21..25
  // and 27..30 held. Segment 26 then lands between them, and 20 drains all.
  ReorderDiff diff{1 << 20};
  bool accepted = false;
  for (std::uint64_t k = 1; k <= 30; ++k) {
    if (k == 20 || k == 26) continue;
    ASSERT_TRUE(diff.offer(grid(k), accepted)) << k;
  }
  ASSERT_TRUE(diff.offer(Arrival{0, 1000, 35'000, 0}, accepted));
  EXPECT_EQ(diff.flat().rcv_nxt(), 20'000u);
  EXPECT_EQ(diff.flat().buffered_bytes(), 9'000u);
  ASSERT_TRUE(diff.offer(Arrival{26'000, 1000, 40'000, 0}, accepted));
  EXPECT_EQ(diff.mid_inserts(), 1u);
  EXPECT_EQ(diff.flat().buffered_bytes(), 10'000u);
  ASSERT_TRUE(diff.offer(Arrival{20'000, 1000, 41'000, 0}, accepted));
  EXPECT_EQ(diff.flat().rcv_nxt(), 31'000u);
  EXPECT_EQ(diff.flat().buffered_bytes(), 0u);
  // Segment 26 waited 1 ms for 20; segment 27 waited 14 ms.
  const auto& samples = diff.flat().ofo_samples();
  ASSERT_EQ(samples.size(), 31u);
  EXPECT_EQ(samples[26].delay, sim::Duration::millis(1));
  EXPECT_EQ(samples[26].subflow_id, 0);
  EXPECT_EQ(samples[27].delay, sim::Duration::millis(14));
}

TEST(ReorderBufferDiff, GrowsPastSixteenRecordsWithNonZeroHead) {
  // Holes at 0, 4 and 10. Filling 0 pops three records, so the held window
  // starts at a non-zero head; appends then fill the 16-record storage and
  // the mid-insert of 10 grows it. More appends follow, and 4 drains all.
  ReorderDiff diff{1 << 20};
  bool accepted = false;
  for (std::uint64_t k = 1; k <= 16; ++k) {
    if (k == 4 || k == 10) continue;
    ASSERT_TRUE(diff.offer(grid(k), accepted)) << k;
  }
  ASSERT_TRUE(diff.offer(Arrival{0, 1000, 16'500, 0}, accepted));
  EXPECT_EQ(diff.flat().rcv_nxt(), 4'000u);
  for (std::uint64_t k = 17; k <= 18; ++k) ASSERT_TRUE(diff.offer(grid(k), accepted)) << k;
  ASSERT_TRUE(diff.offer(Arrival{10'000, 1000, 19'000, 0}, accepted));
  EXPECT_EQ(diff.mid_inserts(), 1u);
  for (std::uint64_t k = 19; k <= 40; ++k) ASSERT_TRUE(diff.offer(grid(k), accepted)) << k;
  EXPECT_EQ(diff.flat().buffered_bytes(), 36'000u);
  ASSERT_TRUE(diff.offer(Arrival{4'000, 1000, 50'000, 0}, accepted));
  EXPECT_EQ(diff.flat().rcv_nxt(), 41'000u);
  EXPECT_EQ(diff.flat().buffered_bytes(), 0u);
  EXPECT_EQ(diff.flat().max_buffered_bytes(), 36'000u);
  EXPECT_EQ(diff.flat().ofo_samples().size(), 41u);
}

// --------------------------------------------------------------------------
// Connection-level integration on a deterministic two-path testbed.

netem::AccessProfile clean_path(const std::string& name, double rate_bps,
                                sim::Duration owd) {
  netem::AccessProfile p;
  p.name = name;
  p.down_rate_bps = rate_bps;
  p.up_rate_bps = rate_bps / 2;
  p.rate_sigma = 0;
  p.owd = owd;
  p.queue_down_bytes = 1 << 20;
  p.queue_up_bytes = 1 << 20;
  p.loss_down = 0;
  p.loss_up = 0;
  p.ge_down.reset();
  p.background.on_utilization = 0;
  return p;
}

experiment::TestbedConfig clean_testbed(std::uint64_t seed = 1) {
  experiment::TestbedConfig tb;
  tb.seed = seed;
  tb.wifi = clean_path("wifi", 20e6, sim::Duration::millis(10));
  tb.cellular = clean_path("cell", 10e6, sim::Duration::millis(40));
  tb.capture_trace = true;
  return tb;
}

struct MptcpRig {
  explicit MptcpRig(MptcpConfig config, std::uint64_t object_bytes,
                    bool four_path = false, std::uint64_t seed = 1)
      : tb{clean_testbed(seed)} {
    std::vector<net::IpAddr> advertise;
    if (four_path) advertise.push_back(kServerAddr2);
    server = std::make_unique<app::MptcpHttpServer>(
        tb.server(), kHttpPort, config, advertise,
        [object_bytes](std::uint64_t) { return object_bytes; });
    client = std::make_unique<app::MptcpHttpClient>(
        tb.client(), config, std::vector<net::IpAddr>{kClientWifiAddr, kClientCellAddr},
        net::SocketAddr{kServerAddr1, kHttpPort});
  }

  void run_download(std::uint64_t bytes, sim::Duration limit = sim::Duration::seconds(60)) {
    done = false;
    client->get(bytes, [this](const app::FetchResult& r) {
      done = true;
      fetch = r;
    });
    tb.sim().run_while([this] { return !done; }, tb.sim().now() + limit);
  }

  MptcpConnection* server_conn() {
    return server->connections().empty() ? nullptr : server->connections().front();
  }

  experiment::Testbed tb;
  std::unique_ptr<app::MptcpHttpServer> server;
  std::unique_ptr<app::MptcpHttpClient> client;
  bool done{false};
  app::FetchResult fetch;
};

TEST(MptcpConnection, EstablishesInitialAndJoinSubflows) {
  MptcpRig rig{MptcpConfig{}, 1 << 20};
  rig.run_download(1 << 20);
  ASSERT_TRUE(rig.done);
  auto sfs = rig.client->connection().subflows();
  ASSERT_EQ(sfs.size(), 2u);
  EXPECT_EQ(sfs[0]->kind(), MptcpSubflow::HandshakeKind::kCapable);
  EXPECT_EQ(sfs[0]->local().addr, kClientWifiAddr);
  EXPECT_EQ(sfs[1]->kind(), MptcpSubflow::HandshakeKind::kJoin);
  EXPECT_EQ(sfs[1]->local().addr, kClientCellAddr);
  ASSERT_NE(rig.server_conn(), nullptr);
  EXPECT_EQ(rig.server_conn()->subflow_count(), 2u);
}

TEST(MptcpConnection, DelayedSynFollowsDataActivity) {
  MptcpRig rig{MptcpConfig{}, 1 << 20};
  rig.run_download(1 << 20);
  ASSERT_TRUE(rig.done);
  // Find the two SYN send times in the trace.
  sim::TimePoint capable_syn;
  sim::TimePoint join_syn;
  for (const auto& rec : rig.tb.trace()->records()) {
    if (rec.kind != net::TraceEvent::Kind::kSend) continue;
    if ((rec.flags & net::kFlagSyn) == 0 || (rec.flags & net::kFlagAck) != 0) continue;
    if (rec.flow.src.addr == kClientWifiAddr) capable_syn = rec.time;
    if (rec.flow.src.addr == kClientCellAddr && join_syn == sim::TimePoint{}) {
      join_syn = rec.time;
    }
  }
  // The join fires only after the first data-level exchange on WiFi
  // (~2 WiFi RTTs = ~44 ms), not immediately.
  EXPECT_GT((join_syn - capable_syn).to_millis(), 30.0);
}

TEST(MptcpConnection, SimultaneousSynsShareAnInstant) {
  MptcpConfig cfg;
  cfg.simultaneous_syns = true;
  MptcpRig rig{cfg, 1 << 20};
  rig.run_download(1 << 20);
  ASSERT_TRUE(rig.done);
  sim::TimePoint capable_syn;
  sim::TimePoint join_syn;
  for (const auto& rec : rig.tb.trace()->records()) {
    if (rec.kind != net::TraceEvent::Kind::kSend) continue;
    if ((rec.flags & net::kFlagSyn) == 0 || (rec.flags & net::kFlagAck) != 0) continue;
    if (rec.flow.src.addr == kClientWifiAddr) capable_syn = rec.time;
    if (rec.flow.src.addr == kClientCellAddr && join_syn == sim::TimePoint{}) {
      join_syn = rec.time;
    }
  }
  EXPECT_EQ(join_syn, capable_syn);
}

TEST(MptcpConnection, DataDeliveredInDsnOrder) {
  MptcpRig rig{MptcpConfig{}, 4 << 20};
  std::uint64_t next = 0;
  bool ordered = true;
  // Chain onto the HTTP client's delivery callback rather than replacing it.
  auto inner = rig.client->connection().on_data;
  rig.client->connection().on_data = [&, inner](std::uint64_t dsn, std::uint32_t len) {
    if (dsn != next) ordered = false;
    next = dsn + len;
    if (inner) inner(dsn, len);
  };
  rig.run_download(4 << 20);
  ASSERT_TRUE(rig.done);
  EXPECT_TRUE(ordered);
  // The request consumed the first data-level bytes of the client->server
  // direction; the download direction starts at 0 at the client.
  EXPECT_EQ(rig.client->connection().rx().delivered_bytes(), (4u << 20));
}

TEST(MptcpConnection, BothPathsCarryLargeDownload) {
  MptcpRig rig{MptcpConfig{}, 8 << 20};
  rig.run_download(8 << 20);
  ASSERT_TRUE(rig.done);
  const auto sfs = rig.client->connection().subflows();
  EXPECT_GT(sfs[0]->metrics().bytes_received, 1u << 20);
  EXPECT_GT(sfs[1]->metrics().bytes_received, 1u << 20);
}

TEST(MptcpConnection, AggregatesBothPathsBandwidth) {
  // 20 + 10 Mbit/s: an 8 MB download must beat the best single path's
  // theoretical time (8 MB at 20 Mbit/s = 3.3 s) once established.
  MptcpRig rig{MptcpConfig{}, 8 << 20};
  rig.run_download(8 << 20);
  ASSERT_TRUE(rig.done);
  EXPECT_LT(rig.fetch.download_time().to_seconds(), 3.3);
  EXPECT_GT(rig.fetch.download_time().to_seconds(), 8.0 * 8.0 / 30.0);  // capacity bound
}

TEST(MptcpConnection, FourPathUsesAddAddr) {
  MptcpRig rig{MptcpConfig{}, 4 << 20, /*four_path=*/true};
  rig.run_download(4 << 20);
  ASSERT_TRUE(rig.done);
  EXPECT_EQ(rig.client->connection().subflow_count(), 4u);
  ASSERT_NE(rig.server_conn(), nullptr);
  EXPECT_EQ(rig.server_conn()->subflow_count(), 4u);
  // Two subflows per client interface.
  int wifi = 0;
  int cell = 0;
  for (const MptcpSubflow* sf : rig.client->connection().subflows()) {
    (sf->local().addr == kClientWifiAddr ? wifi : cell) += 1;
  }
  EXPECT_EQ(wifi, 2);
  EXPECT_EQ(cell, 2);
}

TEST(MptcpConnection, TwoPathWithoutAdvertiseStaysTwoPath) {
  MptcpRig rig{MptcpConfig{}, 1 << 20, /*four_path=*/false};
  rig.run_download(1 << 20);
  ASSERT_TRUE(rig.done);
  EXPECT_EQ(rig.client->connection().subflow_count(), 2u);
}

TEST(MptcpConnection, OfoDelayArisesFromPathAsymmetry) {
  MptcpRig rig{MptcpConfig{}, 8 << 20};
  rig.run_download(8 << 20);
  ASSERT_TRUE(rig.done);
  const auto& samples = rig.client->connection().rx().ofo_samples();
  ASSERT_GT(samples.size(), 1000u);
  std::size_t delayed = 0;
  for (const OfoSample& s : samples) {
    if (s.delay > sim::Duration::zero()) ++delayed;
  }
  EXPECT_GT(delayed, samples.size() / 20) << "asymmetric paths must cause reordering";
}

TEST(MptcpConnection, DataFinSignalsEndOfStream) {
  MptcpRig rig{MptcpConfig{}, 64 << 10};
  bool fin_seen = false;
  rig.client->connection().on_data_fin = [&] { fin_seen = true; };
  // The HTTP server never sends DATA_FIN (persistent connection); drive a
  // manual one: use a raw client connection instead.
  MptcpConfig cfg;
  auto conn = std::make_unique<MptcpConnection>(
      rig.tb.client(), cfg, std::vector<net::IpAddr>{kClientWifiAddr, kClientCellAddr},
      net::SocketAddr{kServerAddr1, kHttpPort}, 424242);
  conn->on_data_fin = [&] { fin_seen = true; };
  // Server side: accept and answer with shutdown_data after writing.
  // Reuse the HTTP server: it answers requests but never DATA_FINs, so test
  // the client->server direction instead: client writes then DATA_FINs.
  conn->connect();
  conn->write(app::kRequestBytes);
  rig.tb.sim().run_for(sim::Duration::seconds(2));
  ASSERT_TRUE(conn->established());
  // Server connection received the request; now have the *server* close.
  ASSERT_FALSE(rig.server->connections().empty());
  MptcpConnection* sconn = rig.server->connections().back();
  sconn->shutdown_data();
  rig.tb.sim().run_for(sim::Duration::seconds(2));
  EXPECT_TRUE(fin_seen);
}

TEST(MptcpConnection, SubflowsCloseAfterDataFinAcked) {
  MptcpRig rig{MptcpConfig{}, 64 << 10};
  rig.run_download(64 << 10);
  ASSERT_TRUE(rig.done);
  MptcpConnection* sconn = rig.server_conn();
  ASSERT_NE(sconn, nullptr);
  sconn->shutdown_data();
  rig.tb.sim().run_for(sim::Duration::seconds(5));
  for (const MptcpSubflow* sf : sconn->subflows()) {
    EXPECT_TRUE(sf->state() == tcp::TcpState::kFinWait ||
                sf->state() == tcp::TcpState::kDone)
        << static_cast<int>(sf->state());
  }
}

TEST(MptcpServer, RejectsJoinWithUnknownToken) {
  MptcpRig rig{MptcpConfig{}, 64 << 10};
  net::PacketPtr rogue = rig.tb.client().pool().acquire();
  rogue->src = kClientCellAddr;
  rogue->dst = kServerAddr1;
  rogue->tcp.src_port = 55555;
  rogue->tcp.dst_port = kHttpPort;
  rogue->tcp.flags = net::kFlagSyn;
  rogue->tcp.set_mp_join(net::MpJoinOption{999999, 1});
  rig.tb.client().send(std::move(rogue));
  rig.tb.sim().run_for(sim::Duration::seconds(1));
  EXPECT_EQ(rig.server->server().rejected_joins(), 1u);
  EXPECT_EQ(rig.server->server().connection_count(), 0u);
}

TEST(MptcpConnection, SurvivesMidTransferPathDeath) {
  // Kill the cellular downlink mid-transfer: reinjection must rescue the
  // data stranded on the dead subflow and the download completes over WiFi.
  MptcpRig rig{MptcpConfig{}, 6 << 20};
  bool killed = false;
  rig.tb.sim().after(sim::Duration::millis(600), [&] {
    rig.tb.cell_access().downlink().set_loss_model(
        std::make_unique<net::BernoulliLoss>(1.0, rig.tb.sim().rng("kill")));
    rig.tb.cell_access().uplink().set_loss_model(
        std::make_unique<net::BernoulliLoss>(1.0, rig.tb.sim().rng("kill2")));
    killed = true;
  });
  rig.run_download(6 << 20, sim::Duration::seconds(300));
  EXPECT_TRUE(killed);
  ASSERT_TRUE(rig.done) << "transfer must complete over the surviving path";
  ASSERT_NE(rig.server_conn(), nullptr);
  EXPECT_GT(rig.server_conn()->reinjected_chunks(), 0u);
}

TEST(MptcpConnection, PenalizationFiresWhenReceiveLimited) {
  MptcpConfig cfg;
  cfg.penalization = true;
  cfg.subflow.receive_buffer = 64 * 1024;  // tight: slow path blocks the window
  MptcpRig rig{cfg, 6 << 20};
  rig.run_download(6 << 20, sim::Duration::seconds(120));
  ASSERT_TRUE(rig.done);
  ASSERT_NE(rig.server_conn(), nullptr);
  EXPECT_GT(rig.server_conn()->penalizations(), 0u);
}

TEST(MptcpConnection, NoPenalizationByDefault) {
  MptcpConfig cfg;
  cfg.subflow.receive_buffer = 64 * 1024;
  MptcpRig rig{cfg, 2 << 20};
  rig.run_download(2 << 20, sim::Duration::seconds(120));
  ASSERT_TRUE(rig.done);
  ASSERT_NE(rig.server_conn(), nullptr);
  EXPECT_EQ(rig.server_conn()->penalizations(), 0u);
}

TEST(MptcpScheduler, MinRttPrefersFastPathWhenAppLimited) {
  // Small objects: the scheduler should put (almost) everything on the
  // low-RTT WiFi path.
  MptcpRig rig{MptcpConfig{}, 32 << 10};
  rig.run_download(32 << 10);
  ASSERT_TRUE(rig.done);
  const auto sfs = rig.client->connection().subflows();
  EXPECT_EQ(sfs[0]->metrics().bytes_received, 32u << 10);
  EXPECT_EQ(sfs[1]->metrics().bytes_received, 0u);
}

TEST(MptcpScheduler, RoundRobinUsesSlowPathMore) {
  // App-limited sequence of small fetches: ordering policy decides which
  // path gets the scarce data. Round-robin must touch the slow path;
  // lowest-RTT must not.
  auto cell_bytes = [](SchedulerKind kind) {
    MptcpConfig cfg;
    cfg.scheduler = kind;
    MptcpRig rig{cfg, 24 << 10};
    for (int i = 0; i < 6; ++i) {
      rig.run_download(24 << 10);
      EXPECT_TRUE(rig.done);
    }
    const auto sfs = rig.client->connection().subflows();
    return sfs[1]->metrics().bytes_received;
  };
  const std::uint64_t rr = cell_bytes(SchedulerKind::kRoundRobin);
  const std::uint64_t minrtt = cell_bytes(SchedulerKind::kMinRtt);
  EXPECT_GT(rr, minrtt);
  EXPECT_EQ(minrtt, 0u);
}

TEST(MptcpConnection, DeterministicAcrossRuns) {
  auto run = [] {
    MptcpRig rig{MptcpConfig{}, 1 << 20, false, 99};
    rig.run_download(1 << 20);
    EXPECT_TRUE(rig.done);
    return rig.fetch.download_time();
  };
  EXPECT_EQ(run(), run());
}

TEST(MptcpConnection, PersistentConnectionServesSequentialRequests) {
  MptcpRig rig{MptcpConfig{}, 256 << 10};
  rig.run_download(256 << 10);
  ASSERT_TRUE(rig.done);
  const sim::Duration first = rig.fetch.download_time();
  rig.run_download(256 << 10);
  ASSERT_TRUE(rig.done);
  // Second fetch reuses the established connection: no handshake cost.
  EXPECT_LT(rig.fetch.fetch_time(), first);
  EXPECT_EQ(rig.client->connection().rx().delivered_bytes(), 2u * (256u << 10));
}

}  // namespace
}  // namespace mpr::core
