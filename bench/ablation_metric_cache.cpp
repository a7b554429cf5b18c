// Ablation — per-destination TCP metric caching (§3.1): the paper disables
// Linux's tcp_metrics cache because "an earlier connection to a particular
// destination encountering a sequence of losses" curses all later short
// flows to that destination with a tiny initial ssthresh.
//
// Scenario: a burst of heavy loss hits the WiFi path while a large transfer
// runs (poisoning the cache), then a series of fresh short connections
// fetch 256 KB objects. With caching they start slow; without (the paper's
// setting) they slow-start normally.
#include <memory>

#include "app/http.h"
#include "common.h"
#include "experiment/testbed.h"
#include "tcp/metrics_cache.h"

using namespace mpr;
using namespace mpr::bench;

namespace {

double short_flow_time_after_poisoning(bool use_cache, std::uint64_t seed) {
  experiment::TestbedConfig tb_cfg = testbed_for(Carrier::kAtt);
  tb_cfg.seed = seed;
  experiment::Testbed tb{tb_cfg};

  tcp::MetricsCache cache;
  tcp::TcpConfig cfg;
  if (use_cache) cfg.metrics_cache = &cache;

  app::TcpHttpServer server{tb.server(), experiment::kHttpPort, cfg,
                            [](std::uint64_t) { return 256ull << 10; }};

  // Phase 1: poison — a transfer through a 20% loss episode.
  tb.wifi_access().downlink().set_loss_model(
      std::make_unique<net::BernoulliLoss>(0.2, tb.sim().rng("burst")));
  {
    app::TcpHttpClient bad{tb.client(), cfg, experiment::kClientWifiAddr,
                           net::SocketAddr{experiment::kServerAddr1, experiment::kHttpPort}};
    bool done = false;
    bad.get(256 << 10, [&](const app::FetchResult&) { done = true; });
    tb.sim().run_while([&] { return !done; }, tb.sim().now() + sim::Duration::seconds(120));
  }
  // Radio conditions recover fully.
  tb.wifi_access().downlink().set_loss_model(std::make_unique<net::NoLoss>());

  // Phase 2: five fresh short connections; measure their mean fetch time.
  double total = 0;
  for (int i = 0; i < 5; ++i) {
    app::TcpHttpClient c{tb.client(), cfg, experiment::kClientWifiAddr,
                         net::SocketAddr{experiment::kServerAddr1, experiment::kHttpPort}};
    bool done = false;
    sim::Duration took;
    c.get(256 << 10, [&](const app::FetchResult& r) {
      done = true;
      took = r.download_time();
    });
    tb.sim().run_while([&] { return !done; }, tb.sim().now() + sim::Duration::seconds(120));
    total += took.to_seconds();
  }
  return total / 5.0;
}

}  // namespace

int main() {
  header("Ablation: tcp_metrics", "Per-destination ssthresh caching after a loss burst",
         "the paper disables caching (§3.1); this shows the harm it avoids");
  const int n = reps(6);
  for (const bool cache : {false, true}) {
    double sum = 0;
    for (int i = 0; i < n; ++i) {
      sum += short_flow_time_after_poisoning(cache, 6060 + static_cast<std::uint64_t>(i));
    }
    std::printf("  metric cache %-4s  mean 256KB fetch after loss burst: %.3f s\n",
                cache ? "on" : "off", sum / n);
  }
  std::printf("\nShape check: cached (poisoned) ssthresh slows every subsequent short\n"
              "flow to the destination, even though the path has fully recovered.\n");
  return 0;
}
