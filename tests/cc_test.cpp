// Congestion-controller unit tests: the Reno-family state machine and the
// LIA / OLIA coupling formulas (§2.2.2), exercised on mock flows so the
// arithmetic can be checked against hand-computed values.
#include <gtest/gtest.h>

#include <cmath>

#include "core/coupled_cc.h"
#include "tcp/congestion.h"

namespace mpr::core {
namespace {

class MockFlow final : public tcp::FlowCc {
 public:
  MockFlow(double cwnd_pkts, double rtt_ms, std::uint32_t mss = 1400)
      : cwnd_{cwnd_pkts * mss}, mss_{mss}, rtt_{sim::Duration::from_millis(rtt_ms)} {}

  double cwnd_bytes() const override { return cwnd_; }
  void set_cwnd_bytes(double w) override { cwnd_ = std::max(w, 1.0 * mss_); }
  std::uint64_t ssthresh_bytes() const override { return ssthresh_; }
  void set_ssthresh_bytes(std::uint64_t s) override { ssthresh_ = s; }
  std::uint32_t mss() const override { return mss_; }
  sim::Duration srtt() const override { return rtt_; }
  std::uint64_t bytes_in_flight() const override { return static_cast<std::uint64_t>(cwnd_); }

  double cwnd_pkts() const { return cwnd_ / mss_; }
  void set_srtt_ms(double ms) { rtt_ = sim::Duration::from_millis(ms); }

 private:
  double cwnd_;
  std::uint64_t ssthresh_{64 * 1024};
  std::uint32_t mss_;
  sim::Duration rtt_;
};

TEST(RenoFamily, SlowStartGrowsByAckedBytes) {
  tcp::NewRenoCc cc;
  MockFlow f{10, 50};
  f.set_ssthresh_bytes(1 << 20);
  cc.register_flow(f);
  const double before = f.cwnd_bytes();
  cc.on_ack(f, 1400);
  EXPECT_DOUBLE_EQ(f.cwnd_bytes(), before + 1400);
}

TEST(RenoFamily, SlowStartStopsAtSsthreshBoundary) {
  tcp::NewRenoCc cc;
  MockFlow f{10, 50};
  f.set_ssthresh_bytes(static_cast<std::uint64_t>(f.cwnd_bytes()) + 700);
  cc.register_flow(f);
  cc.on_ack(f, 1400);
  // 700 bytes of slow start + remaining 700 bytes at CA rate (mss*acked/w).
  const double expected =
      14000.0 + 700.0 + 1400.0 * 700.0 / 14700.0;
  EXPECT_NEAR(f.cwnd_bytes(), expected, 1.0);
}

TEST(RenoFamily, CongestionAvoidanceIsReciprocal) {
  tcp::NewRenoCc cc;
  MockFlow f{20, 50};
  f.set_ssthresh_bytes(2800);  // force CA (2 MSS: lowest audit-legal ssthresh)
  cc.register_flow(f);
  const double before = f.cwnd_bytes();
  cc.on_ack(f, 1400);
  // Δ = mss * acked / cwnd = 1400*1400/28000 = 70 bytes.
  EXPECT_NEAR(f.cwnd_bytes() - before, 70.0, 0.01);
}

TEST(RenoFamily, LossHalvesWindowAndSetsSsthresh) {
  tcp::NewRenoCc cc;
  MockFlow f{20, 50};
  cc.register_flow(f);
  cc.on_loss_event(f);
  EXPECT_NEAR(f.cwnd_bytes(), 14000.0, 0.01);
  EXPECT_EQ(f.ssthresh_bytes(), 14000u);
}

TEST(RenoFamily, LossFloorsAtTwoMss) {
  tcp::NewRenoCc cc;
  MockFlow f{2, 50};
  cc.register_flow(f);
  cc.on_loss_event(f);
  EXPECT_DOUBLE_EQ(f.cwnd_bytes(), 2.0 * 1400);
}

TEST(RenoFamily, RtoCollapsesToOneMss) {
  tcp::NewRenoCc cc;
  MockFlow f{40, 50};
  cc.register_flow(f);
  cc.on_rto(f);
  EXPECT_DOUBLE_EQ(f.cwnd_bytes(), 1400.0);
  EXPECT_EQ(f.ssthresh_bytes(), 28000u);  // flight/2
}

TEST(CcFactory, MakesAllThreeKinds) {
  EXPECT_NE(make_congestion_control(CcKind::kReno), nullptr);
  EXPECT_NE(make_congestion_control(CcKind::kCoupled), nullptr);
  EXPECT_NE(make_congestion_control(CcKind::kOlia), nullptr);
  EXPECT_EQ(to_string(CcKind::kReno), "reno");
  EXPECT_EQ(to_string(CcKind::kCoupled), "coupled");
  EXPECT_EQ(to_string(CcKind::kOlia), "olia");
}

// --- LIA ------------------------------------------------------------------

TEST(Lia, SinglePathReducesToReno) {
  LiaCc cc;
  MockFlow f{20, 100};
  f.set_ssthresh_bytes(2800);
  cc.register_flow(f);
  const double before = f.cwnd_bytes();
  cc.on_ack(f, 1400);
  // One path: alpha = w * (w/rtt^2) / (w/rtt)^2 = 1 -> min(1/w, 1/w) = reno.
  EXPECT_NEAR(f.cwnd_bytes() - before, 1400.0 * 1400.0 / before, 0.5);
}

TEST(Lia, IncreaseNeverExceedsReno) {
  LiaCc cc;
  MockFlow wifi{20, 20};
  MockFlow cell{60, 100};
  wifi.set_ssthresh_bytes(2800);
  cell.set_ssthresh_bytes(2800);
  cc.register_flow(wifi);
  cc.register_flow(cell);
  const double before_w = wifi.cwnd_bytes();
  cc.on_ack(wifi, 1400);
  const double reno_inc = 1400.0 * 1400.0 / before_w;
  EXPECT_LE(wifi.cwnd_bytes() - before_w, reno_inc + 1e-9);
}

TEST(Lia, AlphaMatchesHandComputedValue) {
  // wifi: w=20 pkts rtt=20ms; cell: w=60 pkts rtt=100ms.
  // alpha = w_tot * max(20/0.0004, 60/0.01) / (20/0.02 + 60/0.1)^2
  //       = 80 * 50000 / 1600^2 = 1.5625
  // wifi increase per pkt acked = min(alpha/w_tot, 1/w_i)
  //       = min(1.5625/80 = 0.01953, 0.05) = 0.01953 pkts
  LiaCc cc;
  MockFlow wifi{20, 20};
  MockFlow cell{60, 100};
  wifi.set_ssthresh_bytes(2800);
  cell.set_ssthresh_bytes(2800);
  cc.register_flow(wifi);
  cc.register_flow(cell);
  const double before = wifi.cwnd_bytes();
  cc.on_ack(wifi, 1400);
  EXPECT_NEAR((wifi.cwnd_bytes() - before) / 1400.0, 0.019531, 1e-4);
}

TEST(Lia, CouplingSlowsLowRttPathRelativeToReno) {
  // The WiFi-like path (small RTT) is throttled: its LIA increase is far
  // below its reno increase; this is the "offload from lossy fast path"
  // behaviour the paper observes in Fig 3.
  LiaCc cc;
  MockFlow wifi{10, 20};
  MockFlow cell{80, 100};
  wifi.set_ssthresh_bytes(2800);
  cell.set_ssthresh_bytes(2800);
  cc.register_flow(wifi);
  cc.register_flow(cell);
  const double before = wifi.cwnd_bytes();
  cc.on_ack(wifi, 1400);
  const double inc = wifi.cwnd_bytes() - before;
  const double reno_inc = 1400.0 * 1400.0 / before;
  EXPECT_LT(inc, reno_inc * 0.5);
}

// --- OLIA -----------------------------------------------------------------

TEST(Olia, SinglePathReducesToReno) {
  OliaCc cc;
  MockFlow f{20, 100};
  f.set_ssthresh_bytes(2800);
  cc.register_flow(f);
  const double before = f.cwnd_bytes();
  cc.on_ack(f, 1400);
  // Single path: (w/rtt^2)/(w/rtt)^2 = 1/w and alpha = 0.
  EXPECT_NEAR(f.cwnd_bytes() - before, 1400.0 * 1400.0 / before, 0.5);
}

TEST(Olia, CoupledTermMatchesHandComputedValue) {
  // The acked path (cell) has the only inter-loss bytes recorded, so it is
  // the unique best path AND the max-window path: collected = {} -> all
  // alphas are 0 and the increase is the pure coupled term
  // (w_i/rtt_i^2) / (sum_p w_p/rtt_p)^2.
  OliaCc cc;
  MockFlow wifi{20, 20};
  MockFlow cell{60, 100};
  wifi.set_ssthresh_bytes(2800);
  cell.set_ssthresh_bytes(2800);
  cc.register_flow(wifi);
  cc.register_flow(cell);

  const double denom = 20.0 / 0.02 + 60.0 / 0.1;  // 1600
  const double before = cell.cwnd_bytes();
  cc.on_ack(cell, 1400);
  const double coupled = (60.0 / (0.1 * 0.1)) / (denom * denom);  // 0.0023437
  EXPECT_NEAR((cell.cwnd_bytes() - before) / 1400.0, coupled, 1e-4);
}

TEST(Olia, BoostsBestPathWithSmallWindow) {
  // cell has seen heavy inter-loss traffic (best path) but currently has
  // the smaller window (e.g. after an RTO): alpha > 0 accelerates it. This
  // is the mechanism that makes olia outperform coupled on unstable paths.
  OliaCc cc;
  MockFlow wifi{40, 20};
  MockFlow cell{5, 100};
  wifi.set_ssthresh_bytes(2800);
  cell.set_ssthresh_bytes(2800);
  cc.register_flow(wifi);
  cc.register_flow(cell);
  // Record traffic so cell's inter-loss estimate dominates.
  cc.on_ack(cell, 1400 * 1000);  // l_cell large
  cc.on_loss_event(wifi);        // l2_wifi = small
  cell.set_cwnd_bytes(5 * 1400.0);
  wifi.set_cwnd_bytes(40 * 1400.0);  // undo the halving side effect

  const double before = cell.cwnd_bytes();
  cc.on_ack(cell, 1400);
  const double inc_pkts = (cell.cwnd_bytes() - before) / 1400.0;
  const double denom = 40.0 / 0.02 + 5.0 / 0.1;
  const double coupled = (5.0 / 0.01) / (denom * denom);
  const double alpha = 0.5 / 1.0;  // 1/(|R| * |collected|) = 1/2
  EXPECT_NEAR(inc_pkts, coupled + alpha / 5.0, 1e-3);
  // The alpha boost dominates the (tiny) coupled term by orders of
  // magnitude — this is what re-opens the window quickly after a collapse.
  EXPECT_GT(inc_pkts, 40.0 * coupled);
}

TEST(Olia, PenalizesMaxWindowPathWhenCollectedNonEmpty) {
  OliaCc cc;
  MockFlow wifi{40, 20};
  MockFlow cell{5, 100};
  wifi.set_ssthresh_bytes(2800);
  cell.set_ssthresh_bytes(2800);
  cc.register_flow(wifi);
  cc.register_flow(cell);
  cc.on_ack(cell, 1400 * 1000);
  cc.on_loss_event(wifi);
  cell.set_cwnd_bytes(5 * 1400.0);
  wifi.set_cwnd_bytes(40 * 1400.0);

  const double before = wifi.cwnd_bytes();
  cc.on_ack(wifi, 1400);
  const double inc_pkts = (wifi.cwnd_bytes() - before) / 1400.0;
  const double denom = 40.0 / 0.02 + 5.0 / 0.1;
  const double coupled = (40.0 / 0.0004) / (denom * denom);
  EXPECT_NEAR(inc_pkts, coupled - 0.5 / 40.0, 1e-3);
}

TEST(Olia, TotalAlphaIsZeroSum) {
  // Window shifted toward collected paths is taken from max-window paths:
  // with one path in each set, |alpha_+| == |alpha_-| * (w ratio aside).
  OliaCc cc;
  MockFlow a{30, 50};
  MockFlow b{10, 50};
  a.set_ssthresh_bytes(2800);
  b.set_ssthresh_bytes(2800);
  cc.register_flow(a);
  cc.register_flow(b);
  cc.on_ack(b, 1400 * 500);  // b becomes best
  cc.on_loss_event(a);
  a.set_cwnd_bytes(30 * 1400.0);
  b.set_cwnd_bytes(10 * 1400.0);

  // alpha_b = +1/(2*1) = 0.5 ; alpha_a = -1/(2*1) = -0.5.
  const double before_a = a.cwnd_bytes();
  const double before_b = b.cwnd_bytes();
  cc.on_ack(a, 1400);
  cc.on_ack(b, 1400);
  const double inc_a = (a.cwnd_bytes() - before_a) / 1400.0;
  const double inc_b = (b.cwnd_bytes() - before_b) / 1400.0;
  const double denom = 30.0 / 0.05 + 10.0 / 0.05;
  const double coupled_a = (30.0 / 0.0025) / (denom * denom);
  const double coupled_b = (10.0 / 0.0025) / (denom * denom);
  EXPECT_NEAR(inc_a - coupled_a, -0.5 / 30.0, 1e-4);
  EXPECT_NEAR(inc_b - coupled_b, +0.5 / 10.0, 1e-4);
}

TEST(Olia, NeverCollapsesWindowOnSingleAck) {
  OliaCc cc;
  MockFlow a{100, 10};
  MockFlow b{2, 500};
  a.set_ssthresh_bytes(2800);
  b.set_ssthresh_bytes(2800);
  cc.register_flow(a);
  cc.register_flow(b);
  cc.on_ack(b, 1400 * 500);
  cc.on_loss_event(a);
  a.set_cwnd_bytes(100 * 1400.0);
  b.set_cwnd_bytes(2 * 1400.0);
  const double before = a.cwnd_bytes();
  cc.on_ack(a, 1400);
  EXPECT_GT(a.cwnd_bytes(), before - 1400.0);  // clamped decrease
}

TEST(Olia, UnregisterRemovesPathFromFormulas) {
  OliaCc cc;
  MockFlow a{20, 50};
  MockFlow b{20, 50};
  a.set_ssthresh_bytes(2800);
  cc.register_flow(a);
  cc.register_flow(b);
  cc.unregister_flow(b);
  const double before = a.cwnd_bytes();
  cc.on_ack(a, 1400);
  // Back to single-path reno behaviour.
  EXPECT_NEAR(a.cwnd_bytes() - before, 1400.0 * 1400.0 / before, 0.5);
}

// --- Vegas ----------------------------------------------------------------
// One decision per epoch (a window of acked bytes): with diff =
// (w/MSS)·(srtt - base_rtt)/srtt, +1 MSS below alpha = 2, -1 MSS above
// beta = 4, and slow start ends above gamma = 1.

TEST(Vegas, RisesOneMssPerEpochWhenSrttIsTheBaseRtt) {
  tcp::VegasCc cc;
  MockFlow f{20, 50};
  f.set_ssthresh_bytes(2800);  // congestion avoidance
  cc.register_flow(f);
  for (int i = 0; i < 19; ++i) cc.on_ack(f, 1400);
  EXPECT_DOUBLE_EQ(f.cwnd_bytes(), 28000.0);  // epoch not closed yet
  cc.on_ack(f, 1400);                          // 20 segments = one window
  EXPECT_DOUBLE_EQ(f.cwnd_bytes(), 29400.0);   // diff = 0 < alpha
}

TEST(Vegas, FallsOneMssWhenQueueEstimateIsAboveBeta) {
  tcp::VegasCc cc;
  MockFlow f{20, 50};
  f.set_ssthresh_bytes(2800);
  cc.register_flow(f);
  cc.on_ack(f, 1400);  // base RTT = 50 ms
  f.set_srtt_ms(100);
  cc.on_ack(f, 26600);  // closes the epoch: diff = 20·50/100 = 10 > beta
  EXPECT_DOUBLE_EQ(f.cwnd_bytes(), 26600.0);
}

TEST(Vegas, SlowStartEndsWhenQueueEstimateIsAboveGamma) {
  tcp::VegasCc cc;
  MockFlow f{10, 50};
  f.set_ssthresh_bytes(1 << 20);
  cc.register_flow(f);
  // An epoch is the window it opened with, although slow start grows the
  // window by every acked byte. The first: ten segments at the base RTT.
  for (int i = 0; i < 10; ++i) cc.on_ack(f, 1400);
  EXPECT_DOUBLE_EQ(f.cwnd_bytes(), 28000.0);  // diff = 0: slow start goes on
  EXPECT_TRUE(f.in_slow_start());
  f.set_srtt_ms(100);
  for (int i = 0; i < 19; ++i) cc.on_ack(f, 1400);
  EXPECT_TRUE(f.in_slow_start());  // the 28 000 B epoch is still open
  cc.on_ack(f, 1400);              // closes it: diff = 40·50/100 > gamma
  EXPECT_DOUBLE_EQ(f.cwnd_bytes(), 56000.0);
  EXPECT_EQ(f.ssthresh_bytes(), 56000u);
  EXPECT_FALSE(f.in_slow_start());
}

TEST(Vegas, LossResponseIsNewRenos) {
  for (const double pkts : {2.0, 3.0, 20.0, 41.0}) {
    for (const bool rto : {false, true}) {
      tcp::VegasCc vegas;
      tcp::NewRenoCc reno;
      MockFlow v{pkts, 50};
      MockFlow r{pkts, 50};
      vegas.register_flow(v);
      reno.register_flow(r);
      vegas.on_ack(v, 1400);
      reno.on_ack(r, 1400);
      if (rto) {
        vegas.on_rto(v);
        reno.on_rto(r);
      } else {
        vegas.on_loss_event(v);
        reno.on_loss_event(r);
      }
      EXPECT_DOUBLE_EQ(v.cwnd_bytes(), r.cwnd_bytes()) << pkts << " rto=" << rto;
      EXPECT_EQ(v.ssthresh_bytes(), r.ssthresh_bytes()) << pkts << " rto=" << rto;
    }
  }
}

TEST(Vegas, RtoRelearnsTheBaseRtt) {
  tcp::VegasCc cc;
  MockFlow f{20, 50};
  f.set_ssthresh_bytes(2800);
  cc.register_flow(f);
  cc.on_ack(f, 1400);  // base RTT = 50 ms
  f.set_srtt_ms(100);
  cc.on_rto(f);  // cwnd 1 MSS, ssthresh 14 000 B
  // The base RTT is relearned as 100 ms, so every slow-start epoch reads
  // diff = 0 and slow start runs up to ssthresh. A kept 50 ms base would
  // read diff = 4·50/100 = 2 > gamma when the 2 800 B epoch closes (third
  // ack) and end slow start at 5 600 B.
  for (int i = 0; i < 9; ++i) cc.on_ack(f, 1400);
  EXPECT_DOUBLE_EQ(f.cwnd_bytes(), 14000.0);
  EXPECT_EQ(f.ssthresh_bytes(), 14000u);
  // The RTO restarted the epoch, so the 11 200 B epoch opened at the 8th
  // ack closes at the 15th at diff 0 and the window rises. An epoch kept
  // across the RTO would still be the pre-RTO 28 000 B one, open here.
  for (int i = 0; i < 6; ++i) cc.on_ack(f, 1400);
  EXPECT_DOUBLE_EQ(f.cwnd_bytes(), 15400.0);
}

TEST(UncoupledReno, SharedInstanceKeepsFlowsIndependent) {
  // The paper's `reno` baseline: one NewRenoCc across subflows must behave
  // identically to separate instances because its math is per-flow only.
  tcp::NewRenoCc shared;
  MockFlow a{20, 20};
  MockFlow b{60, 100};
  a.set_ssthresh_bytes(2800);
  b.set_ssthresh_bytes(2800);
  shared.register_flow(a);
  shared.register_flow(b);
  const double before_a = a.cwnd_bytes();
  shared.on_ack(a, 1400);
  EXPECT_NEAR(a.cwnd_bytes() - before_a, 1400.0 * 1400.0 / before_a, 0.5);
}

}  // namespace
}  // namespace mpr::core
