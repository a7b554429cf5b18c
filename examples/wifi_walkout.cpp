// Robustness under path failure (the paper's §6 mobility argument): a user
// starts a 16 MB download at a cafe table, then walks out — the WiFi signal
// degrades and dies mid-transfer. Single-path TCP strands the download;
// MPTCP shifts the traffic to LTE on the fly (reinjecting data stranded on
// the dying subflow) and finishes.
//
// Run: ./build/examples/wifi_walkout
#include <cstdio>
#include <memory>

#include "app/http.h"
#include "experiment/testbed.h"

using namespace mpr;
using namespace mpr::experiment;

namespace {

constexpr std::uint64_t kObject = 16ull << 20;

/// Progressively degrade, then kill, the WiFi link starting at t=2s.
void schedule_walkout(Testbed& tb) {
  tb.sim().after(sim::Duration::seconds(2), [&tb] {
    std::printf("  [t=%5.1fs] leaving the cafe: WiFi loss rises to 15%%\n",
                tb.sim().now().to_seconds());
    tb.wifi_access().downlink().set_loss_model(
        std::make_unique<net::BernoulliLoss>(0.15, tb.sim().rng("walk1")));
  });
  tb.sim().after(sim::Duration::seconds(4), [&tb] {
    std::printf("  [t=%5.1fs] out of range: WiFi dead\n", tb.sim().now().to_seconds());
    tb.wifi_access().downlink().set_loss_model(
        std::make_unique<net::BernoulliLoss>(1.0, tb.sim().rng("walk2")));
    tb.wifi_access().uplink().set_loss_model(
        std::make_unique<net::BernoulliLoss>(1.0, tb.sim().rng("walk3")));
  });
}

void run(const char* label, bool multipath) {
  TestbedConfig config;
  config.seed = 11;
  Testbed tb{config};
  schedule_walkout(tb);

  core::MptcpConfig mptcp;
  app::MptcpHttpServer server{tb.server(), kHttpPort, mptcp, {},
                              [](std::uint64_t) { return kObject; }};
  std::vector<net::IpAddr> ifaces{kClientWifiAddr};
  if (multipath) ifaces.push_back(kClientCellAddr);
  app::MptcpHttpClient client{tb.client(), mptcp, ifaces,
                              net::SocketAddr{kServerAddr1, kHttpPort}};

  std::printf("\n%s\n", label);
  bool done = false;
  app::FetchResult result;
  client.get(kObject, [&](const app::FetchResult& r) {
    result = r;
    done = true;
  });
  tb.sim().run_while([&] { return !done; }, tb.sim().now() + sim::Duration::seconds(120));

  if (!done) {
    std::printf("  download STALLED (%.0f%% delivered after 120 s)\n",
                100.0 * static_cast<double>(client.connection().rx().delivered_bytes()) /
                    static_cast<double>(kObject));
    return;
  }
  std::printf("  download completed in %.2f s\n", result.download_time().to_seconds());
  for (const core::MptcpSubflow* sf : client.connection().subflows()) {
    const bool wifi = sf->local().addr == kClientWifiAddr;
    std::printf("    %-4s subflow carried %5.1f MB\n", wifi ? "wifi" : "lte",
                static_cast<double>(sf->metrics().bytes_received) / (1024.0 * 1024.0));
  }
}

}  // namespace

int main() {
  std::printf("16 MB download; WiFi degrades at t=2s and dies at t=4s\n");
  run("single-path TCP over WiFi:", false);
  run("2-path MPTCP (WiFi + LTE):", true);
  return 0;
}
