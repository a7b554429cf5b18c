// Web browsing over MPTCP (the paper's introductory motivation): loads a
// sampled web page — a document plus a dozen heavy-tailed embedded objects
// over a persistent connection — on single-path WiFi, single-path LTE and
// 2-path MPTCP, and prints the page-load times.
//
// Run: ./build/examples/web_browsing
#include <cstdio>

#include "app/webpage.h"
#include "experiment/testbed.h"

using namespace mpr;
using namespace mpr::experiment;

namespace {

double load_page(const app::WebPage& page, bool use_wifi, bool use_cell, std::uint64_t seed) {
  TestbedConfig config;
  config.seed = seed;
  Testbed tb{config};

  core::MptcpConfig mptcp;
  app::MptcpHttpServer server{tb.server(), kHttpPort, mptcp, {},
                              [page](std::uint64_t i) { return page.object_size(i); }};
  std::vector<net::IpAddr> ifaces;
  if (use_wifi) ifaces.push_back(kClientWifiAddr);
  if (use_cell) ifaces.push_back(kClientCellAddr);
  app::MptcpHttpClient client{tb.client(), mptcp, ifaces,
                              net::SocketAddr{kServerAddr1, kHttpPort}};

  app::PageLoadSession session{client, page};
  session.start();
  tb.sim().run_while([&] { return !session.finished(); },
                     tb.sim().now() + sim::Duration::seconds(120));
  return session.finished() ? session.result().load_time.to_seconds() : -1.0;
}

}  // namespace

void run_page(const char* label, const app::WebPage& page) {
  std::printf("\n%s: %zu objects, %.2f MB total (document %.0f KB, largest %.0f KB)\n",
              label, page.object_bytes.size(),
              static_cast<double>(page.total_bytes()) / (1024.0 * 1024.0),
              static_cast<double>(page.document_bytes) / 1024.0,
              static_cast<double>(*std::max_element(page.object_bytes.begin(),
                                                    page.object_bytes.end())) /
                  1024.0);
  std::printf("%-24s %s\n", "configuration", "page-load time (3 runs)");
  struct Config {
    const char* name;
    bool wifi;
    bool cell;
  };
  for (const Config c : {Config{"single-path WiFi", true, false},
                         Config{"single-path LTE", false, true},
                         Config{"2-path MPTCP", true, true}}) {
    std::printf("%-24s", c.name);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const double t = load_page(page, c.wifi, c.cell, seed);
      std::printf("  %6.2f s", t);
    }
    std::printf("\n");
  }
}

int main() {
  // A typical text-heavy page (sampled heavy-tail sizes, mostly small)...
  sim::Rng rng{2026};
  run_page("news article", app::WebPage::sample(rng));

  // ...and a media-rich page where the tail dominates.
  app::WebPage media;
  media.document_bytes = 80 * 1024;
  media.object_bytes = {20ull << 10, 35ull << 10, 60ull << 10, 900ull << 10,
                        2ull << 20,  3ull << 20,  50ull << 10};
  run_page("media-rich page", media);

  std::printf("\nSequential small objects are RTT-bound — WiFi (and hence MPTCP,\n"
              "which rides its best path) wins. The media page's multi-MB tail is\n"
              "bandwidth-bound, where MPTCP pulls ahead of both single paths.\n");
  return 0;
}
