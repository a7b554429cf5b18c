// Quickstart: download one 4 MB object over 2-path MPTCP (home WiFi +
// AT&T LTE) and print the connection-level statistics the library exposes.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "app/http.h"
#include "app/ping.h"
#include "experiment/testbed.h"
#include "netem/access.h"

using namespace mpr;
using namespace mpr::experiment;

int main() {
  // 1. A simulated testbed: dual-homed server, client with WiFi + LTE.
  TestbedConfig config;
  config.seed = 42;
  config.wifi = netem::wifi_home();
  config.cellular = netem::att_lte();
  Testbed tb{config};

  // 2. An HTTP server that answers every request with a 4 MB object.
  core::MptcpConfig mptcp;  // defaults: coupled controller, minRTT scheduler
  app::MptcpHttpServer server{tb.server(), kHttpPort, mptcp, /*advertise_extra=*/{},
                              [](std::uint64_t) { return 4ull << 20; }};

  // 3. A wget-like MPTCP client. The first listed interface (WiFi) is the
  //    default path; the cellular subflow joins via MP_JOIN.
  app::MptcpHttpClient client{tb.client(), mptcp,
                              {kClientWifiAddr, kClientCellAddr},
                              net::SocketAddr{kServerAddr1, kHttpPort}};

  // 4. Warm the cellular radio (as the paper does before each measurement),
  //    then fetch.
  app::PingAgent pinger{tb.client(), kClientCellAddr, kServerAddr1};
  bool done = false;
  app::FetchResult result;
  pinger.ping(2, [&] {
    client.get(4ull << 20, [&](const app::FetchResult& r) {
      result = r;
      done = true;
    });
  });
  // Run until the download finishes. The testbed's background traffic
  // keeps scheduling itself, so the event queue never drains on its own.
  tb.sim().run_while([&] { return !done; });

  // 5. Report.
  std::printf("downloaded %llu bytes in %.3f s (first SYN -> last byte)\n",
              static_cast<unsigned long long>(result.bytes),
              result.download_time().to_seconds());
  for (const core::MptcpSubflow* sf : client.connection().subflows()) {
    const bool wifi = sf->local().addr == kClientWifiAddr;
    std::printf("  subflow %d via %-4s: %8llu bytes received, srtt %.1f ms\n", sf->id(),
                wifi ? "wifi" : "lte",
                static_cast<unsigned long long>(sf->metrics().bytes_received),
                sf->srtt().to_millis());
  }
  const auto& rx = client.connection().rx();
  std::size_t reordered = 0;
  for (const core::OfoSample& s : rx.ofo_samples()) {
    if (s.delay > sim::Duration::zero()) ++reordered;
  }
  std::printf("  reorder buffer: %zu/%zu packets waited for the other path (peak %llu KB)\n",
              reordered, rx.ofo_samples().size(),
              static_cast<unsigned long long>(rx.max_buffered_bytes() / 1024));
  return 0;
}
