// Extension — fairness to competing traffic: the paper asserts that
// "TCP New Reno [as an MPTCP controller] performs better because it is
// more aggressive and not fair to other users" (§4.2) but never measures
// the victim. Here a regular single-path TCP user shares the WiFi AP with
// an MPTCP download and we measure what each controller costs them —
// RFC 6356's design goal, quantified.
//
// Setup: a second client host on the same WiFi access link runs a bulk
// single-path download while the MPTCP host runs a long bulk download over
// WiFi + AT&T LTE under each controller; both goodputs are measured over
// the same 20 s steady-state window.
#include <memory>

#include "app/http.h"
#include "common.h"
#include "experiment/testbed.h"

using namespace mpr;
using namespace mpr::bench;

namespace {

constexpr net::IpAddr kCompetitorAddr{3};

struct FairnessResult {
  double mptcp_time_s{0};  // repurposed: MPTCP goodput Mbit/s over the window
  double competitor_mbps{0};
};

FairnessResult run(std::optional<core::CcKind> cc, std::uint64_t seed) {
  experiment::TestbedConfig tb_cfg = testbed_for(Carrier::kAtt);
  tb_cfg.seed = seed;
  // Contention must be congestion-driven to expose the controllers'
  // fairness: strip the WiFi radio loss/background so the flows compete in
  // the AP queue (as in the controlled fairness testbeds of RFC 6356).
  tb_cfg.wifi.ge_down.reset();
  tb_cfg.wifi.loss_down = 0.0;
  tb_cfg.wifi.loss_up = 0.0;
  tb_cfg.wifi.rate_sigma = 0.0;
  tb_cfg.wifi.background.on_utilization = 0.0;
  tb_cfg.wifi.bg_up_utilization = 0.0;
  experiment::Testbed tb{tb_cfg};

  // Competitor: single-path TCP bulk download sharing the WiFi access link.
  net::Host competitor{tb.sim(), tb.network(), {kCompetitorAddr}};
  tb.network().set_access(kCompetitorAddr, &tb.wifi_access().uplink(),
                          &tb.wifi_access().downlink());
  tcp::TcpConfig tcfg;
  app::TcpHttpServer sp_server{tb.server(), 9090, tcfg,
                               [](std::uint64_t) { return 1ull << 30; }};
  app::TcpHttpClient sp_client{competitor, tcfg, kCompetitorAddr,
                               net::SocketAddr{experiment::kServerAddr1, 9090}};
  sp_client.get(1ull << 30, [](const app::FetchResult&) {});

  // MPTCP under test (absent => baseline: competitor alone).
  std::unique_ptr<app::MptcpHttpServer> mp_server;
  std::unique_ptr<app::MptcpHttpClient> mp_client;
  bool mp_done = !cc.has_value();
  app::FetchResult mp_fetch;
  if (cc) {
    core::MptcpConfig mcfg;
    mcfg.cc = *cc;
    mp_server = std::make_unique<app::MptcpHttpServer>(
        tb.server(), experiment::kHttpPort, mcfg, std::vector<net::IpAddr>{},
        [](std::uint64_t) { return 256ull << 20; });
    mp_client = std::make_unique<app::MptcpHttpClient>(
        tb.client(), mcfg,
        std::vector<net::IpAddr>{experiment::kClientWifiAddr, experiment::kClientCellAddr},
        net::SocketAddr{experiment::kServerAddr1, experiment::kHttpPort});
    mp_client->get(256ull << 20, [&](const app::FetchResult& r) {
      mp_done = true;
      mp_fetch = r;
    });
  }

  // Measure the competitor's goodput over a fixed 20 s window.
  constexpr double kWindowS = 20.0;
  tb.sim().run_until(sim::TimePoint::origin() + sim::Duration::from_seconds(kWindowS));
  FairnessResult out;
  out.competitor_mbps =
      static_cast<double>(sp_client.endpoint().metrics().bytes_received) * 8.0 / kWindowS /
      1e6;
  if (cc && mp_client) {
    // Steady-state MPTCP goodput over the same window.
    std::uint64_t mp_bytes = 0;
    for (const core::MptcpSubflow* sf : mp_client->connection().subflows()) {
      mp_bytes += sf->metrics().bytes_received;
    }
    out.mptcp_time_s = static_cast<double>(mp_bytes) * 8.0 / kWindowS / 1e6;
  }
  return out;
}

}  // namespace

int main() {
  header("Extension: fairness", "Cost of each MPTCP controller to a competing WiFi user",
         "competitor = bulk single-path TCP on the same (clean) AP; 20 s window");
  const int n = reps(6);

  struct Row {
    const char* label;
    std::optional<core::CcKind> cc;
  };
  const Row rows[] = {
      {"competitor alone", std::nullopt},
      {"vs MP-2 coupled", core::CcKind::kCoupled},
      {"vs MP-2 olia", core::CcKind::kOlia},
      {"vs MP-2 reno", core::CcKind::kReno},
  };

  // Every (scenario, rep) run is independent: run them in parallel, then
  // aggregate in (scenario, rep) order so the output is the same at any
  // MPR_JOBS.
  std::vector<FairnessResult> results(std::size(rows) * static_cast<std::size_t>(n));
  sim::parallel_for_index(results.size(), jobs(), [&](std::size_t k) {
    results[k] = run(rows[k / n].cc, 7070 + k % n);
  });

  double baseline = 0;
  std::printf("  %-18s %-22s %-18s\n", "scenario", "competitor goodput", "MPTCP goodput");
  for (std::size_t r_i = 0; r_i < std::size(rows); ++r_i) {
    const Row& row = rows[r_i];
    double mbps = 0;
    double mp_time = 0;
    int mp_runs = 0;
    for (int i = 0; i < n; ++i) {
      const FairnessResult& r = results[r_i * n + i];
      mbps += r.competitor_mbps;
      if (row.cc && r.mptcp_time_s > 0) {
        mp_time += r.mptcp_time_s;
        ++mp_runs;
      }
    }
    mbps /= n;
    if (!row.cc) baseline = mbps;
    char share[32] = "";
    if (row.cc && baseline > 0) {
      std::snprintf(share, sizeof share, " (%.0f%% of alone)", mbps / baseline * 100.0);
    }
    char mp[32] = "-";
    if (mp_runs > 0) std::snprintf(mp, sizeof mp, "%.2f Mbit/s", mp_time / mp_runs);
    std::printf("  %-18s %6.2f Mbit/s%-9s %-18s\n", row.label, mbps, share, mp);
  }
  std::printf("\nShape check: uncoupled reno grabs a full TCP-fair share of the AP\n"
              "(competitor down to ~half) while the coupled controllers shift load\n"
              "to LTE and leave the competitor most of its throughput, olia the\n"
              "most — RFC 6356's design goal, and the fairness cost behind the\n"
              "paper's remark that reno 'is not fair to other users' (§4.2).\n");
  return 0;
}
