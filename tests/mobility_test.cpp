// Mobility / path-management tests: dynamic MP_PRIO re-prioritization and
// REMOVE_ADDR interface withdrawal (the §6 mobility story).
#include <gtest/gtest.h>

#include "app/http.h"
#include "core/connection.h"
#include "experiment/testbed.h"

namespace mpr::core {
namespace {

using experiment::kClientCellAddr;
using experiment::kClientWifiAddr;
using experiment::kHttpPort;
using experiment::kServerAddr1;
using experiment::TestbedConfig;

struct Rig {
  explicit Rig(std::uint64_t object_bytes, MptcpConfig cfg = MptcpConfig{},
               std::uint64_t seed = 3)
      : tb{make_cfg(seed)} {
    server = std::make_unique<app::MptcpHttpServer>(
        tb.server(), kHttpPort, cfg, std::vector<net::IpAddr>{},
        [object_bytes](std::uint64_t) { return object_bytes; });
    client = std::make_unique<app::MptcpHttpClient>(
        tb.client(), cfg, std::vector<net::IpAddr>{kClientWifiAddr, kClientCellAddr},
        net::SocketAddr{kServerAddr1, kHttpPort});
  }

  static TestbedConfig make_cfg(std::uint64_t seed) {
    TestbedConfig tb;
    tb.seed = seed;
    return tb;
  }

  bool run(std::uint64_t bytes, sim::Duration limit = sim::Duration::seconds(300)) {
    bool done = false;
    client->get(bytes, [&](const app::FetchResult&) { done = true; });
    tb.sim().run_while([&] { return !done; }, tb.sim().now() + limit);
    return done;
  }

  std::uint64_t cell_bytes() {
    std::uint64_t total = 0;
    for (const MptcpSubflow* sf : client->connection().subflows()) {
      if (sf->local().addr == kClientCellAddr) total += sf->metrics().bytes_received;
    }
    return total;
  }

  experiment::Testbed tb;
  std::unique_ptr<app::MptcpHttpServer> server;
  std::unique_ptr<app::MptcpHttpClient> client;
};

TEST(MpPrio, DynamicBackupStopsNewCellularData) {
  Rig rig{16 << 20};
  std::uint64_t cell_at_switch = 0;
  rig.tb.sim().after(sim::Duration::seconds(2), [&] {
    cell_at_switch = rig.cell_bytes();
    rig.client->connection().set_subflow_backup(kClientCellAddr, true);
  });
  ASSERT_TRUE(rig.run(16 << 20));
  EXPECT_GT(cell_at_switch, 0u) << "cellular should carry data before the switch";
  // In-flight data still lands after the switch; bound the slack by a
  // couple of windows rather than expecting an exact freeze.
  EXPECT_LT(rig.cell_bytes(), cell_at_switch + 600 * 1024);
}

TEST(MpPrio, SignalReachesServerSideSubflow) {
  Rig rig{2 << 20};
  ASSERT_TRUE(rig.run(2 << 20));
  rig.client->connection().set_subflow_backup(kClientCellAddr, true);
  rig.tb.sim().run_for(sim::Duration::seconds(1));
  ASSERT_FALSE(rig.server->connections().empty());
  bool found = false;
  for (const MptcpSubflow* sf : rig.server->connections().front()->subflows()) {
    if (sf->remote().addr == kClientCellAddr) {
      EXPECT_TRUE(sf->backup());
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(MpPrio, FlippingBackRestoresCellularUsage) {
  MptcpConfig cfg;
  cfg.backup_local_addrs.push_back(kClientCellAddr);  // start as backup
  Rig rig{4 << 20, cfg};
  ASSERT_TRUE(rig.run(4 << 20));
  EXPECT_EQ(rig.cell_bytes(), 0u);
  // Promote the cellular path to a regular subflow, fetch again.
  rig.client->connection().set_subflow_backup(kClientCellAddr, false);
  ASSERT_TRUE(rig.run(4 << 20));
  EXPECT_GT(rig.cell_bytes(), 0u);
}

TEST(RemoveAddr, WithdrawnInterfaceKillsSubflowsBothSides) {
  Rig rig{8 << 20};
  rig.tb.sim().after(sim::Duration::seconds(1), [&] {
    rig.tb.wifi_access().set_down(true);  // the radio is really gone...
    rig.client->connection().remove_local_addr(kClientWifiAddr);  // ...and the stack knows
  });
  ASSERT_TRUE(rig.run(8 << 20));
  for (const MptcpSubflow* sf : rig.client->connection().subflows()) {
    if (sf->local().addr == kClientWifiAddr) {
      EXPECT_EQ(sf->state(), tcp::TcpState::kClosed);
    }
  }
  ASSERT_FALSE(rig.server->connections().empty());
  for (const MptcpSubflow* sf : rig.server->connections().front()->subflows()) {
    if (sf->remote().addr == kClientWifiAddr) {
      EXPECT_EQ(sf->state(), tcp::TcpState::kClosed)
          << "REMOVE_ADDR must tear down the server side too";
    }
  }
}

TEST(RemoveAddr, StrandedDataIsReinjected) {
  Rig rig{8 << 20};
  rig.tb.sim().after(sim::Duration::millis(700), [&] {
    rig.tb.wifi_access().set_down(true);
    rig.client->connection().remove_local_addr(kClientWifiAddr);
  });
  ASSERT_TRUE(rig.run(8 << 20)) << "download must finish over the surviving path";
  // Data stranded on the withdrawn WiFi path was reinjected by the server
  // (the data sender) after its subflow died, or never lost in the first
  // place; either way the byte stream is complete:
  EXPECT_EQ(rig.client->connection().rx().delivered_bytes(), 8u << 20);
}

TEST(RemoveAddr, CompletesEvenWhenDefaultPathVanishes) {
  // The initial (MP_CAPABLE) subflow itself is removed: the connection
  // must survive on the joined subflow alone.
  Rig rig{4 << 20, MptcpConfig{}, 8};
  bool removed = false;
  rig.tb.sim().after(sim::Duration::seconds(1), [&] {
    removed = true;
    rig.tb.wifi_access().set_down(true);
    rig.client->connection().remove_local_addr(kClientWifiAddr);
  });
  ASSERT_TRUE(rig.run(4 << 20));
  EXPECT_TRUE(removed);
  EXPECT_GT(rig.cell_bytes(), 0u);
}

}  // namespace
}  // namespace mpr::core
