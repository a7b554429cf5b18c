// Tests for the extension features built on top of the paper's study:
//  * the device radio energy model (the paper's §6 future work),
//  * backup-mode subflows (RFC 6824 B bit; Paasch et al.'s backup mode),
//  * interface up/down and WiFi re-use after an outage (§7 open question).
#include <gtest/gtest.h>

#include "app/http.h"
#include "experiment/carriers.h"
#include "experiment/run.h"
#include "experiment/testbed.h"
#include "netem/energy.h"

namespace mpr {
namespace {

using experiment::kClientCellAddr;
using experiment::kClientWifiAddr;
using experiment::kHttpPort;
using experiment::kServerAddr1;
using experiment::PathMode;
using experiment::RunConfig;
using experiment::TestbedConfig;

sim::TimePoint at_s(double s) {
  return sim::TimePoint::origin() + sim::Duration::from_seconds(s);
}

// --------------------------------------------------------------------------
// EnergyMeter.

TEST(EnergyMeter, NoActivityNoEnergy) {
  netem::EnergyMeter m{netem::RadioPowerProfile::lte()};
  EXPECT_DOUBLE_EQ(m.energy_joules(at_s(100)), 0.0);
  EXPECT_FALSE(m.started());
}

TEST(EnergyMeter, SingleBurstActivePlusTail) {
  netem::RadioPowerProfile p{.idle_mw = 0, .active_mw = 1000, .tail_mw = 500,
                             .tail_time = sim::Duration::from_seconds(2)};
  netem::EnergyMeter m{p};
  m.note_activity(at_s(1), sim::Duration::from_seconds(0.5));
  // 0.5 s active at 1 W + full 2 s tail at 0.5 W = 0.5 + 1.0 J.
  EXPECT_NEAR(m.energy_joules(at_s(10)), 1.5, 1e-9);
  EXPECT_NEAR(m.active_time().to_seconds(), 0.5, 1e-9);
}

TEST(EnergyMeter, ShortGapStaysInTail) {
  netem::RadioPowerProfile p{.idle_mw = 0, .active_mw = 1000, .tail_mw = 500,
                             .tail_time = sim::Duration::from_seconds(2)};
  netem::EnergyMeter m{p};
  m.note_activity(at_s(1), sim::Duration::from_seconds(0.1));
  m.note_activity(at_s(2), sim::Duration::from_seconds(0.1));  // gap 0.9 s < tail
  // active 0.2 J... 0.2 s * 1 W = 0.2 J; tail during gap 0.9 s * 0.5 = 0.45;
  // final tail 2 s * 0.5 = 1.0.
  EXPECT_NEAR(m.energy_joules(at_s(20)), 0.2 + 0.45 + 1.0, 1e-9);
}

TEST(EnergyMeter, LongGapFallsToIdle) {
  netem::RadioPowerProfile p{.idle_mw = 10, .active_mw = 1000, .tail_mw = 500,
                             .tail_time = sim::Duration::from_seconds(2)};
  netem::EnergyMeter m{p};
  m.note_activity(at_s(0), sim::Duration::from_seconds(1));
  m.note_activity(at_s(11), sim::Duration::from_seconds(1));  // gap 10 s
  // active 2 s * 1 W = 2 J; tail 2 s * .5 = 1 J; idle 8 s * 0.01 = 0.08 J;
  // final tail 1 J at end exactly 2s after last activity.
  EXPECT_NEAR(m.energy_joules(at_s(14)), 2.0 + 1.0 + 0.08 + 1.0, 1e-9);
}

TEST(EnergyMeter, BackToBackPacketsQueueAirtime) {
  netem::RadioPowerProfile p{.idle_mw = 0, .active_mw = 1000, .tail_mw = 0,
                             .tail_time = sim::Duration::zero()};
  netem::EnergyMeter m{p};
  // Two packets "sent" at the same instant serialize sequentially.
  m.note_activity(at_s(1), sim::Duration::from_seconds(0.2));
  m.note_activity(at_s(1), sim::Duration::from_seconds(0.2));
  EXPECT_NEAR(m.active_time().to_seconds(), 0.4, 1e-9);
  EXPECT_NEAR(m.energy_joules(at_s(2)), 0.4, 1e-9);
}

TEST(EnergyMeter, PresetsAreOrderedSensibly) {
  const auto wifi = netem::RadioPowerProfile::wifi();
  const auto lte = netem::RadioPowerProfile::lte();
  const auto evdo = netem::RadioPowerProfile::evdo_3g();
  EXPECT_GT(lte.active_mw, wifi.active_mw);
  EXPECT_GT(lte.tail_time, wifi.tail_time);
  EXPECT_GT(evdo.tail_time, wifi.tail_time);
  EXPECT_GT(lte.tail_mw, wifi.tail_mw);
}

// --------------------------------------------------------------------------
// Interface up/down.

TEST(AccessUpDown, SetDownDropsEverythingRestoreRecovers) {
  TestbedConfig cfg;
  cfg.seed = 5;
  experiment::Testbed tb{cfg};
  app::PingResponder* responder = nullptr;  // testbed installs one already
  (void)responder;

  app::PingAgent agent{tb.client(), kClientWifiAddr, kServerAddr1};
  tb.wifi_access().set_down(true);
  EXPECT_TRUE(tb.wifi_access().is_down());
  bool done = false;
  agent.ping(1, [&] { done = true; });
  tb.sim().run_for(sim::Duration::seconds(3));
  EXPECT_TRUE(done);
  EXPECT_EQ(agent.replies(), 0);  // timed out

  tb.wifi_access().set_down(false);
  app::PingAgent agent2{tb.client(), kClientWifiAddr, kServerAddr1};
  bool done2 = false;
  agent2.ping(1, [&] { done2 = true; });
  tb.sim().run_for(sim::Duration::seconds(3));
  EXPECT_TRUE(done2);
  EXPECT_EQ(agent2.replies(), 1);
}

TEST(AccessUpDown, SetDownIsIdempotent) {
  TestbedConfig cfg;
  experiment::Testbed tb{cfg};
  tb.wifi_access().set_down(true);
  tb.wifi_access().set_down(true);
  tb.wifi_access().set_down(false);
  tb.wifi_access().set_down(false);
  EXPECT_FALSE(tb.wifi_access().is_down());
}

// --------------------------------------------------------------------------
// Backup mode.

TEST(BackupMode, BackupSubflowIdlesWhilePrimaryHealthy) {
  TestbedConfig tb;
  tb.seed = 9;
  RunConfig rc;
  rc.mode = PathMode::kMptcp2;
  rc.file_bytes = 4 << 20;
  rc.backup_local_addrs = {experiment::kClientCellAddr};
  const experiment::RunResult r = run_download(tb, rc);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.cellular.bytes_received, 0u);
  EXPECT_EQ(r.wifi.bytes_received, 4u << 20);
  // Both subflows exist (the join still happens) — only data is withheld.
  EXPECT_EQ(r.cellular.subflows, 1u);
}

TEST(BackupMode, BackupSavesCellularEnergyOnLargeTransfers) {
  // The LTE tail dominates short transfers (an idle-but-promoted radio
  // costs nearly as much as an active one), so backup mode pays off on
  // *large* transfers where active airtime dominates — exactly the
  // energy/performance trade the paper's §6 poses.
  TestbedConfig tb;
  tb.seed = 10;
  RunConfig full;
  full.mode = PathMode::kMptcp2;
  full.file_bytes = 16 << 20;
  full.ping_warmup = false;
  RunConfig backup = full;
  backup.backup_local_addrs = {experiment::kClientCellAddr};
  const experiment::RunResult rf = run_download(tb, full);
  const experiment::RunResult rb = run_download(tb, backup);
  ASSERT_TRUE(rf.completed);
  ASSERT_TRUE(rb.completed);
  EXPECT_LT(rb.cellular_energy_j, rf.cellular_energy_j * 0.75);
  // ...at the cost of WiFi-only download speed.
  EXPECT_GE(rb.download_time_s, rf.download_time_s);
}

TEST(BackupMode, BackupTakesOverWhenPrimaryDies) {
  TestbedConfig tb_cfg;
  tb_cfg.seed = 11;
  experiment::Testbed tb{tb_cfg};
  core::MptcpConfig cfg;
  cfg.backup_local_addrs.push_back(kClientCellAddr);
  app::MptcpHttpServer server{tb.server(), kHttpPort, cfg, {},
                              [](std::uint64_t) { return 6ull << 20; }};
  app::MptcpHttpClient client{tb.client(), cfg, {kClientWifiAddr, kClientCellAddr},
                              net::SocketAddr{kServerAddr1, kHttpPort}};
  tb.sim().after(sim::Duration::millis(800), [&] { tb.wifi_access().set_down(true); });
  bool done = false;
  client.get(6 << 20, [&](const app::FetchResult&) { done = true; });
  tb.sim().run_while([&] { return !done; }, tb.sim().now() + sim::Duration::seconds(300));
  ASSERT_TRUE(done) << "backup subflow must take over after WiFi death";
  std::uint64_t cell_bytes = 0;
  for (const core::MptcpSubflow* sf : client.connection().subflows()) {
    if (sf->local().addr == kClientCellAddr) cell_bytes += sf->metrics().bytes_received;
  }
  EXPECT_GT(cell_bytes, 4u << 20);
}

// --------------------------------------------------------------------------
// WiFi outage and re-use.

TEST(HandoverReuse, WifiReusedAfterOutage) {
  TestbedConfig tb_cfg;
  tb_cfg.seed = 12;
  tb_cfg.capture_trace = true;
  experiment::Testbed tb{tb_cfg};
  core::MptcpConfig cfg;
  app::MptcpHttpServer server{tb.server(), kHttpPort, cfg, {},
                              [](std::uint64_t) { return 24ull << 20; }};
  app::MptcpHttpClient client{tb.client(), cfg, {kClientWifiAddr, kClientCellAddr},
                              net::SocketAddr{kServerAddr1, kHttpPort}};
  // Outage from 1 s to 4 s.
  tb.sim().after(sim::Duration::seconds(1), [&] { tb.wifi_access().set_down(true); });
  tb.sim().after(sim::Duration::seconds(4), [&] { tb.wifi_access().set_down(false); });
  bool done = false;
  client.get(24 << 20, [&](const app::FetchResult&) { done = true; });
  tb.sim().run_while([&] { return !done; }, tb.sim().now() + sim::Duration::seconds(600));
  ASSERT_TRUE(done);
  // Find the last WiFi data delivery: it must postdate the restoration,
  // i.e. MPTCP re-used the path instead of abandoning it.
  sim::TimePoint last_wifi_data;
  for (const auto& rec : tb.trace()->records()) {
    if (rec.kind == net::TraceEvent::Kind::kDeliver && rec.payload > 0 &&
        rec.flow.dst.addr == kClientWifiAddr) {
      last_wifi_data = rec.time;
    }
  }
  EXPECT_GT(last_wifi_data, at_s(4.0));
}

// --------------------------------------------------------------------------
// Energy fields of the run harness.

TEST(RunEnergy, SinglePathWifiLeavesCellularRadioCold) {
  TestbedConfig tb;
  tb.seed = 13;
  RunConfig rc;
  rc.mode = PathMode::kSingleWifi;
  rc.file_bytes = 1 << 20;
  rc.ping_warmup = false;  // don't touch the cellular radio at all
  const experiment::RunResult r = run_download(tb, rc);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.wifi_energy_j, 0.0);
  EXPECT_DOUBLE_EQ(r.cellular_energy_j, 0.0);
}

TEST(RunEnergy, MptcpPaysTheLteTail) {
  TestbedConfig tb;
  tb.seed = 14;
  RunConfig sp;
  sp.mode = PathMode::kSingleWifi;
  sp.file_bytes = 1 << 20;
  sp.ping_warmup = false;
  RunConfig mp = sp;
  mp.mode = PathMode::kMptcp2;
  const experiment::RunResult rs = run_download(tb, sp);
  const experiment::RunResult rm = run_download(tb, mp);
  ASSERT_TRUE(rs.completed && rm.completed);
  // The second radio costs real energy: a short download pays mostly the
  // ~11.6 s LTE tail (~12 J) regardless of the bytes it carried.
  EXPECT_GT(rm.cellular_energy_j, 8.0);
  EXPECT_GT(rm.cellular_energy_j + rm.wifi_energy_j, rs.wifi_energy_j);
}

TEST(RunEnergy, LargerDownloadsCostMoreEnergy) {
  TestbedConfig tb;
  tb.seed = 15;
  RunConfig small;
  small.mode = PathMode::kMptcp2;
  small.file_bytes = 256 << 10;
  RunConfig large = small;
  large.file_bytes = 8 << 20;
  const experiment::RunResult rs = run_download(tb, small);
  const experiment::RunResult rl = run_download(tb, large);
  ASSERT_TRUE(rs.completed && rl.completed);
  EXPECT_GT(rl.wifi_energy_j + rl.cellular_energy_j,
            rs.wifi_energy_j + rs.cellular_energy_j);
}

}  // namespace
}  // namespace mpr
