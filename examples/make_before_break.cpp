// Make-before-break handover with the mobility API (extension of the §6
// mobility discussion): as the user walks toward the door, the application
// anticipates losing WiFi. Instead of waiting for timeouts, it
//  1. flips WiFi to backup priority (MP_PRIO) — traffic drains to LTE
//     while WiFi is still usable,
//  2. withdraws the WiFi address (REMOVE_ADDR) once the radio is gone.
//
// Total download time barely changes (the LTE subflow never stops), but the
// application-visible stall does: reactively, data stranded on the dead
// WiFi path blocks the in-order stream until RTO-backoff reinjection kicks
// in — a multi-second freeze for a video player. Anticipating the handover
// removes it.
//
// Run: ./build/examples/make_before_break
#include <cstdio>

#include "app/http.h"
#include "experiment/testbed.h"

using namespace mpr;
using namespace mpr::experiment;

namespace {

constexpr std::uint64_t kObject = 24ull << 20;

double run(bool anticipate) {
  TestbedConfig config;
  config.seed = 21;
  Testbed tb{config};

  core::MptcpConfig mptcp;
  app::MptcpHttpServer server{tb.server(), kHttpPort, mptcp, {},
                              [](std::uint64_t) { return kObject; }};
  app::MptcpHttpClient client{tb.client(), mptcp,
                              {kClientWifiAddr, kClientCellAddr},
                              net::SocketAddr{kServerAddr1, kHttpPort}};

  if (anticipate) {
    // t=4.5s: signal weakening — drain traffic off WiFi while it still works.
    tb.sim().after(sim::Duration::from_seconds(4.5), [&] {
      std::printf("  [t=4.5s] weak signal: WiFi -> backup (MP_PRIO)\n");
      client.connection().set_subflow_backup(kClientWifiAddr, true);
    });
  }
  // t=5s: WiFi gone.
  tb.sim().after(sim::Duration::seconds(5), [&] {
    std::printf("  [t=5.0s] WiFi out of range%s\n",
                anticipate ? "; withdrawing address (REMOVE_ADDR)" : " (stack not told)");
    tb.wifi_access().set_down(true);
    if (anticipate) client.connection().remove_local_addr(kClientWifiAddr);
  });

  // Application-visible stall: the longest gap between in-order deliveries
  // in the handover window (what a player would experience as a freeze).
  // The window is bounded so ordinary cellular rate dips later in the
  // transfer don't pollute the comparison.
  sim::TimePoint last_delivery;
  sim::Duration max_gap;
  auto inner = client.connection().on_data;
  client.connection().on_data = [&, inner](std::uint64_t dsn, std::uint32_t len) {
    const sim::TimePoint now = tb.sim().now();
    if (last_delivery != sim::TimePoint{} && now.to_seconds() > 4.5 &&
        last_delivery.to_seconds() < 9.0) {
      max_gap = std::max(max_gap, now - last_delivery);
    }
    last_delivery = now;
    if (inner) inner(dsn, len);
  };

  bool done = false;
  app::FetchResult result;
  client.get(kObject, [&](const app::FetchResult& r) {
    result = r;
    done = true;
  });
  tb.sim().run_while([&] { return !done; }, tb.sim().now() + sim::Duration::seconds(300));
  if (!done) {
    std::printf("  did not complete within 300 s\n");
    return -1;
  }
  std::printf("  completed in %.2f s; longest delivery stall %.0f ms\n",
              result.download_time().to_seconds(), max_gap.to_millis());
  return max_gap.to_millis();
}

}  // namespace

int main() {
  std::printf("24 MB download; WiFi dies at t=5s\n");
  std::printf("\nreactive (no mobility hints — recovery via RTOs + reinjection):\n");
  const double reactive_stall = run(false);
  std::printf("\nmake-before-break (MP_PRIO at t=4.5s, REMOVE_ADDR at t=5s):\n");
  const double proactive_stall = run(true);
  if (reactive_stall > 0 && proactive_stall > 0) {
    std::printf("\nanticipating the handover cut the application stall from %.0f ms to"
                " %.0f ms.\n", reactive_stall, proactive_stall);
  }
  return 0;
}
