// Extension (paper §7 open question) — how quickly MPTCP re-uses a
// re-established WiFi path: Paasch et al. "did not explore how quickly
// MPTCP can re-use re-established WiFi".
//
// A long download runs over WiFi+LTE; the WiFi interface goes out of range
// for a configurable outage, then returns. We measure the re-use delay:
// time from restoration until the next new data delivery over WiFi. The
// exponential RTO backoff of the stalled subflow makes this delay grow
// with the outage duration — the protocol probes the dead path ever more
// rarely.
#include "app/http.h"
#include "common.h"
#include "experiment/testbed.h"

using namespace mpr;
using namespace mpr::bench;

namespace {

struct ReuseResult {
  bool completed{false};
  double reuse_delay_s{-1};
  double download_s{0};
};

ReuseResult run_outage(double outage_s, std::uint64_t seed) {
  experiment::TestbedConfig tb_cfg = testbed_for(Carrier::kAtt);
  tb_cfg.seed = seed;
  tb_cfg.capture_trace = true;
  experiment::Testbed tb{tb_cfg};
  core::MptcpConfig cfg;
  app::MptcpHttpServer server{tb.server(), experiment::kHttpPort, cfg, {},
                              [](std::uint64_t) { return 128ull << 20; }};
  app::MptcpHttpClient client{
      tb.client(), cfg,
      {experiment::kClientWifiAddr, experiment::kClientCellAddr},
      net::SocketAddr{experiment::kServerAddr1, experiment::kHttpPort}};

  const sim::TimePoint down_at = sim::TimePoint::origin() + sim::Duration::seconds(2);
  const sim::TimePoint up_at = down_at + sim::Duration::from_seconds(outage_s);
  tb.sim().at(down_at, [&] { tb.wifi_access().set_down(true); });
  tb.sim().at(up_at, [&] { tb.wifi_access().set_down(false); });

  bool done = false;
  client.get(128 << 20, [&](const app::FetchResult&) { done = true; });
  tb.sim().run_while([&] { return !done; }, tb.sim().now() + sim::Duration::seconds(1200));

  ReuseResult out;
  out.completed = done;
  out.download_s = tb.sim().now().to_seconds();
  for (const auto& rec : tb.trace()->records()) {
    if (rec.kind == net::TraceEvent::Kind::kDeliver && rec.payload > 0 &&
        rec.flow.dst.addr == experiment::kClientWifiAddr && rec.time > up_at) {
      out.reuse_delay_s = (rec.time - up_at).to_seconds();
      break;
    }
  }
  return out;
}

}  // namespace

int main() {
  header("Extension: handover", "WiFi re-use delay after an outage (128 MB download)",
         "re-use delay = restoration -> first new WiFi data; grows with RTO backoff");
  const int n = reps(5);
  const std::vector<double> outages{0.5, 2.0, 8.0, 30.0};
  // Every (outage, rep) session is independent: run them in parallel, then
  // aggregate in (outage, rep) order so the output is the same at any
  // MPR_JOBS.
  std::vector<ReuseResult> results(outages.size() * static_cast<std::size_t>(n));
  sim::parallel_for_index(results.size(), jobs(), [&](std::size_t k) {
    results[k] = run_outage(outages[k / n], 4040 + k % n);
  });
  std::printf("%-12s %-16s %-14s\n", "outage", "reuse delay", "(mean over runs)");
  for (std::size_t o = 0; o < outages.size(); ++o) {
    const double outage = outages[o];
    double sum = 0;
    int counted = 0;
    for (int i = 0; i < n; ++i) {
      const ReuseResult& r = results[o * n + i];
      if (r.completed && r.reuse_delay_s >= 0) {
        sum += r.reuse_delay_s;
        ++counted;
      }
    }
    if (counted == 0) {
      std::printf("%-12s (wifi never re-used)\n",
                  experiment::fmt_scalar(outage, "s", 1).c_str());
      continue;
    }
    std::printf("%-12s %-16s n=%d\n", experiment::fmt_scalar(outage, "s", 1).c_str(),
                experiment::fmt_scalar(sum / counted, "s", 2).c_str(), counted);
  }
  std::printf("\nShape check: re-use delay grows with outage length — the stalled\n"
              "subflow probes at exponentially backed-off RTOs — but is bounded by\n"
              "the dead-path RTO cap (TcpConfig::dead_rto_cap), so even a long\n"
              "outage leaves the restored path idle for at most about the cap.\n");
  return 0;
}
