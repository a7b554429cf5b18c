// Congestion-controller comparison (§2.2.2 / §4.2): runs the same 16 MB
// download under uncoupled reno, coupled (LIA) and OLIA over WiFi + LTE,
// printing download time, per-path shares and per-path windows' behaviour.
//
// Run: ./build/examples/controller_comparison
#include <cstdio>

#include "app/http.h"
#include "experiment/carriers.h"
#include "experiment/testbed.h"

using namespace mpr;
using namespace mpr::experiment;

namespace {

void run(core::CcKind cc) {
  TestbedConfig config;
  config.seed = 3;
  config.cellular = netem::att_lte();
  Testbed tb{config};

  core::MptcpConfig mptcp;
  mptcp.cc = cc;
  app::MptcpHttpServer server{tb.server(), kHttpPort, mptcp, {},
                              [](std::uint64_t) { return 16ull << 20; }};
  app::MptcpHttpClient client{tb.client(), mptcp,
                              {kClientWifiAddr, kClientCellAddr},
                              net::SocketAddr{kServerAddr1, kHttpPort}};

  bool done = false;
  app::FetchResult result;
  client.get(16ull << 20, [&](const app::FetchResult& r) {
    result = r;
    done = true;
  });
  tb.sim().run_while([&] { return !done; });

  std::uint64_t wifi_bytes = 0;
  std::uint64_t cell_bytes = 0;
  for (const core::MptcpSubflow* sf : client.connection().subflows()) {
    (sf->local().addr == kClientWifiAddr ? wifi_bytes : cell_bytes) +=
        sf->metrics().bytes_received;
  }
  const double total = static_cast<double>(wifi_bytes + cell_bytes);
  std::printf("  %-8s %6.2f s   wifi %4.0f%% / cell %4.0f%%\n",
              core::to_string(cc).c_str(), result.download_time().to_seconds(),
              100.0 * static_cast<double>(wifi_bytes) / total,
              100.0 * static_cast<double>(cell_bytes) / total);
}

}  // namespace

int main() {
  std::printf("16 MB download over home WiFi + AT&T LTE, one run per controller\n");
  std::printf("  %-8s %-10s %s\n", "cc", "time", "path shares");
  for (const core::CcKind cc :
       {core::CcKind::kReno, core::CcKind::kCoupled, core::CcKind::kOlia}) {
    run(cc);
  }
  std::printf("\nreno is fastest because each subflow competes as an independent\n"
              "TCP flow (unfair to cross traffic); the coupled controllers shift\n"
              "traffic off the lossy WiFi path onto the loss-free LTE path.\n");
  return 0;
}
