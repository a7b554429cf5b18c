// Video streaming over MPTCP (the §6 use case): replays the Netflix-iPad
// traffic pattern from Table 7 — a large prefetch followed by periodic
// block downloads — over single-path WiFi and over 2-path MPTCP, and shows
// how MPTCP shortens the prefetch and keeps blocks inside their period.
//
// Run: ./build/examples/video_streaming
#include <cstdio>

#include "app/http.h"
#include "app/streaming.h"
#include "experiment/testbed.h"

using namespace mpr;
using namespace mpr::experiment;

namespace {

void play(const char* label, bool multipath) {
  TestbedConfig config;
  config.seed = 7;
  config.cellular = netem::att_lte();
  Testbed tb{config};

  app::StreamingWorkload workload = app::StreamingWorkload::netflix_ipad();
  workload.blocks = 12;

  core::MptcpConfig mptcp;
  app::MptcpHttpServer server{tb.server(), kHttpPort, mptcp, {},
                              [workload](std::uint64_t i) { return workload.object_size(i); }};
  std::vector<net::IpAddr> ifaces{kClientWifiAddr};
  if (multipath) ifaces.push_back(kClientCellAddr);
  app::MptcpHttpClient client{tb.client(), mptcp, ifaces,
                              net::SocketAddr{kServerAddr1, kHttpPort}};

  app::StreamingSession session{tb.sim(), client, workload};
  session.start();
  tb.sim().run_while([&] { return !session.finished(); });

  const app::StreamingResult& r = session.result();
  std::printf("\n%s\n", label);
  std::printf("  prefetch (%.1f MB): %.2f s\n",
              static_cast<double>(workload.prefetch_bytes) / (1024.0 * 1024.0),
              r.prefetch_time.to_seconds());
  std::printf("  blocks (%.1f MB every %.1f s):",
              static_cast<double>(workload.block_bytes) / (1024.0 * 1024.0),
              workload.period.to_seconds());
  for (const sim::Duration d : r.block_times) std::printf(" %.2f", d.to_seconds());
  std::printf(" s\n  late blocks (rebuffer risk): %llu/%llu\n",
              static_cast<unsigned long long>(r.late_blocks),
              static_cast<unsigned long long>(workload.blocks));
}

}  // namespace

int main() {
  std::printf("Netflix-iPad workload (Table 7) on home WiFi + AT&T LTE\n");
  play("single-path WiFi:", false);
  play("2-path MPTCP (WiFi + LTE):", true);
  return 0;
}
