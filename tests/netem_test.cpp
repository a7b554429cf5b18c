// Unit tests for the wireless emulation layer: rate process, ARQ delay,
// RRC state machine, background traffic, access profiles.
#include <gtest/gtest.h>

#include "net/network.h"
#include "net/packet_pool.h"
#include "netem/access.h"
#include "netem/arq.h"
#include "netem/background.h"
#include "netem/rate_process.h"
#include "netem/rrc.h"
#include "sim/simulation.h"

namespace mpr::netem {
namespace {

TEST(RateProcessTest, ConstantWhenSigmaZero) {
  sim::Simulation sim{1};
  RateProcess rp{sim, {.base_bps = 5e6, .sigma = 0.0}, sim.rng("r")};
  sim.run_for(sim::Duration::seconds(10));
  EXPECT_DOUBLE_EQ(rp.rate_bps(), 5e6);
}

TEST(RateProcessTest, StaysWithinBounds) {
  sim::Simulation sim{2};
  RateProcess rp{sim,
                 {.base_bps = 10e6,
                  .sigma = 1.2,
                  .resample_interval = sim::Duration::millis(10),
                  .max_factor = 1.0},
                 sim.rng("r")};
  for (int i = 0; i < 1000; ++i) {
    sim.run_for(sim::Duration::millis(10));
    const double r = rp.rate_bps();
    EXPECT_GE(r, RateProcess::kMinBps);
    EXPECT_LE(r, 10e6);
  }
}

TEST(RateProcessTest, PiecewiseConstantBetweenResamples) {
  sim::Simulation sim{3};
  RateProcess rp{sim,
                 {.base_bps = 10e6, .sigma = 0.8,
                  .resample_interval = sim::Duration::millis(100)},
                 sim.rng("r")};
  sim.run_for(sim::Duration::millis(105));
  const double r1 = rp.rate_bps();
  sim.run_for(sim::Duration::millis(10));  // still same window
  EXPECT_DOUBLE_EQ(rp.rate_bps(), r1);
}

TEST(RateProcessTest, ActuallyDips) {
  sim::Simulation sim{4};
  RateProcess rp{sim,
                 {.base_bps = 10e6, .sigma = 1.0,
                  .resample_interval = sim::Duration::millis(10), .max_factor = 1.0},
                 sim.rng("r")};
  int deep_dips = 0;
  for (int i = 0; i < 2000; ++i) {
    sim.run_for(sim::Duration::millis(10));
    if (rp.rate_bps() < 3e6) ++deep_dips;
  }
  EXPECT_GT(deep_dips, 100);  // sigma 1.0: P(F > 3.3) ~ 12%
}

TEST(ArqTest, ZeroProbabilityNeverDelays) {
  sim::Simulation sim{1};
  ArqDelayModel m{{.retx_prob = 0.0}, sim.rng("a")};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(m.extra_delay(), sim::Duration::zero());
}

TEST(ArqTest, DelayQuantizedByRounds) {
  sim::Simulation sim{2};
  ArqDelayModel m{{.retx_prob = 1.0, .round_delay = sim::Duration::millis(10), .max_rounds = 4},
                  sim.rng("a")};
  for (int i = 0; i < 200; ++i) {
    const sim::Duration d = m.extra_delay();
    // With retx_prob 1.0 every packet takes max_rounds rounds (+-20% jitter).
    EXPECT_GE(d.to_millis(), 4 * 10 * 0.8 - 1e-9);
    EXPECT_LE(d.to_millis(), 4 * 10 * 1.2 + 1e-9);
  }
}

TEST(ArqTest, DelayFrequencyMatchesProbability) {
  sim::Simulation sim{3};
  ArqDelayModel m{{.retx_prob = 0.25, .round_delay = sim::Duration::millis(10), .max_rounds = 3},
                  sim.rng("a")};
  int delayed = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (m.extra_delay() > sim::Duration::zero()) ++delayed;
  }
  EXPECT_NEAR(static_cast<double>(delayed) / kTrials, 0.25, 0.02);
}

TEST(RrcTest, FirstPacketPaysPromotion) {
  RrcStateMachine rrc{{.promotion_delay = sim::Duration::millis(300),
                       .idle_timeout = sim::Duration::seconds(5)}};
  const sim::TimePoint t0 = sim::TimePoint::origin() + sim::Duration::seconds(1);
  EXPECT_EQ(rrc.on_traffic(t0), t0 + sim::Duration::millis(300));
  EXPECT_EQ(rrc.promotions(), 1u);
}

TEST(RrcTest, ConnectedTrafficNotDelayed) {
  RrcStateMachine rrc{{.promotion_delay = sim::Duration::millis(300),
                       .idle_timeout = sim::Duration::seconds(5)}};
  const sim::TimePoint t0 = sim::TimePoint::origin() + sim::Duration::seconds(1);
  (void)rrc.on_traffic(t0);
  const sim::TimePoint t1 = t0 + sim::Duration::millis(400);  // after promotion
  EXPECT_EQ(rrc.on_traffic(t1), t1);
  EXPECT_EQ(rrc.promotions(), 1u);
}

TEST(RrcTest, PacketDuringPromotionWaitsForReady) {
  RrcStateMachine rrc{{.promotion_delay = sim::Duration::millis(300),
                       .idle_timeout = sim::Duration::seconds(5)}};
  const sim::TimePoint t0 = sim::TimePoint::origin();
  const sim::TimePoint ready = rrc.on_traffic(t0);
  const sim::TimePoint t1 = t0 + sim::Duration::millis(100);  // mid-promotion
  EXPECT_EQ(rrc.on_traffic(t1), ready);
}

TEST(RrcTest, DemotesAfterIdleTimeout) {
  RrcStateMachine rrc{{.promotion_delay = sim::Duration::millis(300),
                       .idle_timeout = sim::Duration::seconds(5)}};
  const sim::TimePoint t0 = sim::TimePoint::origin();
  (void)rrc.on_traffic(t0);
  const sim::TimePoint t1 = t0 + sim::Duration::seconds(10);  // idle > 5 s
  EXPECT_EQ(rrc.on_traffic(t1), t1 + sim::Duration::millis(300));
  EXPECT_EQ(rrc.promotions(), 2u);
}

// Cross-traffic never reaches the deliver callback (the link releases it
// at the wire), so the achieved load is read from the link's own counters.
TEST(BackgroundTest, InjectsAtConfiguredUtilization) {
  sim::Simulation sim{7};
  net::Link link{sim,
                 {.name = "l", .rate_bps = 10e6, .prop_delay = sim::Duration::millis(1),
                  .queue_capacity_bytes = 1 << 20},
                 [](net::PacketPtr) {}};
  BackgroundTraffic bg{sim, link,
                       {.on_utilization = 0.5, .on_fraction = 1.0,
                        .mean_on = sim::Duration::seconds(10)},
                       sim.rng("bg")};
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(20));
  const double achieved =
      static_cast<double>(link.stats().bytes_delivered) * 8.0 / 20.0 / 10e6;
  EXPECT_NEAR(achieved, 0.5, 0.05);
  EXPECT_GT(bg.packets_injected(), 0u);
}

TEST(BackgroundTest, OnOffDutyCycle) {
  sim::Simulation sim{8};
  net::Link link{sim,
                 {.name = "l", .rate_bps = 10e6, .prop_delay = sim::Duration::millis(1),
                  .queue_capacity_bytes = 1 << 20},
                 [](net::PacketPtr) {}};
  BackgroundTraffic bg{sim, link,
                       {.on_utilization = 0.8, .on_fraction = 0.25,
                        .mean_on = sim::Duration::seconds(1)},
                       sim.rng("bg")};
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(60));
  const double achieved =
      static_cast<double>(link.stats().bytes_delivered) * 8.0 / 60.0 / 10e6;
  // Long-run utilization = on_utilization * on_fraction = 0.2.
  EXPECT_NEAR(achieved, 0.2, 0.06);
}

TEST(BackgroundTest, StopHaltsInjection) {
  sim::Simulation sim{9};
  net::Link link{sim,
                 {.name = "l", .rate_bps = 10e6, .prop_delay = sim::Duration::millis(1),
                  .queue_capacity_bytes = 1 << 20},
                 [](net::PacketPtr) {}};
  BackgroundTraffic bg{sim, link,
                       {.on_utilization = 0.5, .on_fraction = 1.0,
                        .mean_on = sim::Duration::seconds(10)},
                       sim.rng("bg")};
  sim.run_for(sim::Duration::seconds(1));
  const std::size_t pending_before = sim.events().pending();
  bg.stop();
  // The generator's one pending event is cancelled, not left to fire.
  EXPECT_EQ(sim.events().pending(), pending_before - 1);
  const std::uint64_t before = bg.packets_injected();
  sim.run_for(sim::Duration::seconds(5));
  EXPECT_EQ(bg.packets_injected(), before);
  EXPECT_TRUE(sim.events().empty());
}

TEST(ProfilesTest, AllProfilesHaveSaneParameters) {
  for (const AccessProfile& p :
       {wifi_home(), wifi_hotspot(), att_lte(), verizon_lte(), sprint_evdo()}) {
    EXPECT_GT(p.down_rate_bps, 0) << p.name;
    EXPECT_GT(p.up_rate_bps, 0) << p.name;
    EXPECT_GT(p.queue_down_bytes, 0u) << p.name;
    EXPECT_GT(p.owd, sim::Duration::zero()) << p.name;
    EXPECT_LE(p.rate_max_factor, 1.5) << p.name;
  }
}

TEST(ProfilesTest, CellularHasRrcWifiDoesNot) {
  EXPECT_FALSE(wifi_home().has_rrc);
  EXPECT_FALSE(wifi_hotspot().has_rrc);
  EXPECT_TRUE(att_lte().has_rrc);
  EXPECT_TRUE(verizon_lte().has_rrc);
  EXPECT_TRUE(sprint_evdo().has_rrc);
}

TEST(ProfilesTest, ThreeGIsSlowerAndFurther) {
  const AccessProfile sprint = sprint_evdo();
  const AccessProfile att = att_lte();
  EXPECT_LT(sprint.down_rate_bps, att.down_rate_bps / 5);
  EXPECT_GT(sprint.rrc.promotion_delay, att.rrc.promotion_delay);
}

TEST(ProfilesTest, HotspotIsLossierThanHome) {
  const AccessProfile home = wifi_home();
  const AccessProfile hotspot = wifi_hotspot();
  ASSERT_TRUE(home.ge_down && hotspot.ge_down);
  net::GilbertElliottLoss home_loss{*home.ge_down, sim::Rng{1}};
  net::GilbertElliottLoss hs_loss{*hotspot.ge_down, sim::Rng{1}};
  EXPECT_GT(hs_loss.steady_state_loss(), home_loss.steady_state_loss());
  EXPECT_GT(hotspot.background.on_utilization, home.background.on_utilization);
}

TEST(AccessNetworkTest, BuildsAndRegistersWithNetwork) {
  sim::Simulation sim{11};
  net::Network network{sim};
  int delivered = 0;
  network.attach_host(net::IpAddr{10}, [&](net::PacketPtr) { ++delivered; });
  AccessNetwork access{sim, network, net::IpAddr{1}, wifi_home()};

  net::PacketPtr p = sim.service<net::PacketPool>().acquire();
  p->src = net::IpAddr{1};
  p->dst = net::IpAddr{10};
  p->payload_bytes = 100;
  network.send(std::move(p));
  sim.run_for(sim::Duration::seconds(1));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(access.uplink().stats().packets_delivered, 1u);
}

TEST(AccessNetworkTest, StopBackgroundSilencesBothDirections) {
  // The hotspot profile loads both directions; one call stops both
  // generators before they inject anything, and nothing stays scheduled.
  sim::Simulation sim{13};
  net::Network network{sim};
  AccessNetwork access{sim, network, net::IpAddr{1}, wifi_hotspot()};
  ASSERT_GT(access.profile().bg_up_utilization, 0.0);
  access.stop_background();
  EXPECT_TRUE(sim.events().empty());
  sim.run_for(sim::Duration::seconds(10));
  EXPECT_EQ(access.downlink().stats().packets_offered, 0u);
  EXPECT_EQ(access.uplink().stats().packets_offered, 0u);
  EXPECT_EQ(sim.events().executed(), 0u);
}

TEST(AccessNetworkTest, CellularRrcDelaysColdStart) {
  sim::Simulation sim{12};
  net::Network network{sim};
  sim::TimePoint arrival;
  network.attach_host(net::IpAddr{10}, [&](net::PacketPtr) { arrival = sim.now(); });
  AccessProfile profile = att_lte();
  profile.rate_sigma = 0;  // deterministic
  profile.arq.retx_prob = 0;
  AccessNetwork access{sim, network, net::IpAddr{2}, profile};

  net::PacketPtr p = sim.service<net::PacketPool>().acquire();
  p->src = net::IpAddr{2};
  p->dst = net::IpAddr{10};
  p->payload_bytes = 100;
  network.send(std::move(p));
  sim.run_for(sim::Duration::seconds(2));
  // One-way delay must include the 300 ms promotion.
  EXPECT_GT((arrival - sim::TimePoint::origin()).to_millis(), 300.0);
  EXPECT_EQ(access.rrc()->promotions(), 1u);
}

}  // namespace
}  // namespace mpr::netem
