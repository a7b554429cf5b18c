// Latency campaign (§5): 2-path MPTCP (coupled) over WiFi plus each
// cellular carrier, 512 KB .. 32 MB objects. One set of runs yields every
// view:
//
//   Figure 12 — packet-RTT CCDF per interface, objects >= 512 KB.
//     Paper shape: WiFi min ~15 ms, 90% below ~50 ms; AT&T min ~40 ms
//     with most samples 50-200 ms; Verizon min ~32 ms but tail out to
//     ~2 s; Sprint min ~50 ms with 98% above 100 ms and a multi-second
//     tail for large objects.
//   Figure 13 — out-of-order delay CCDF at the receive buffer, 4-32 MB.
//     Paper shape: with AT&T/Verizon ~75% of packets arrive in order
//     (zero delay); with Sprint ~75% are out of order, and >20% wait
//     longer than the ~150 ms real-time interactivity budget.
//   Table 6 — per-path RTT and OFO delay, mean ± stderr, 4-32 MB.
#include "common.h"

using namespace mpr;
using namespace mpr::bench;

int main() {
  header("Figure 12", "Packet RTT CCDF of MPTCP connections (ms; tail quantiles)",
         "p50/p75/p90/p99 are the values exceeded with that probability inverted");
  const int n = reps(8);
  Campaign c{{512 * kKB, 4 * kMB, 8 * kMB, 16 * kMB, 32 * kMB}, {}, {}};
  for (const Carrier carrier : experiment::all_carriers()) {
    for (const std::uint64_t size : c.sizes) {
      RunConfig rc;
      rc.mode = PathMode::kMptcp2;
      rc.file_bytes = size;
      c.runs[to_string(carrier)].push_back(
          experiment::run_series(testbed_for(carrier), rc, n, 1515 + size));
    }
  }
  const std::vector<std::uint64_t> large{4 * kMB, 8 * kMB, 16 * kMB, 32 * kMB};

  for (const Carrier carrier : experiment::all_carriers()) {
    std::printf("\n-- WiFi + %s --\n", to_string(carrier).c_str());
    for (const std::uint64_t size : {512 * kKB, 4 * kMB, 16 * kMB, 32 * kMB}) {
      const std::vector<RunResult>& rs = c.at(to_string(carrier), size);
      print_ccdf_row(to_string(carrier) + " " + experiment::fmt_size(size),
                     experiment::pooled_rtt_ms(rs, true));
      print_ccdf_row("wifi " + experiment::fmt_size(size), experiment::pooled_rtt_ms(rs, false));
    }
  }
  std::printf("\nShape check: WiFi min lowest with a short tail; cellular minima\n"
              "higher with tails ordered Sprint > Verizon > AT&T.\n");

  header("Figure 13", "Out-of-order delay CCDF at the receive buffer (ms)");
  for (const Carrier carrier : experiment::all_carriers()) {
    std::printf("\n-- WiFi + %s --\n", to_string(carrier).c_str());
    for (const std::uint64_t size : large) {
      const auto ofo = experiment::pooled_ofo_ms(c.at(to_string(carrier), size));
      std::size_t in_order = 0;
      std::size_t over_150 = 0;
      for (const double v : ofo) {
        if (v <= 1e-9) ++in_order;
        if (v > 150.0) ++over_150;
      }
      const double total = ofo.empty() ? 1.0 : static_cast<double>(ofo.size());
      std::printf("  %-6s in-order=%5.1f%%  >150ms=%5.1f%%  ",
                  experiment::fmt_size(size).c_str(),
                  static_cast<double>(in_order) / total * 100.0,
                  static_cast<double>(over_150) / total * 100.0);
      print_ccdf_row("", ofo);
    }
  }
  std::printf("\nShape check: LTE pairings mostly in-order; Sprint majority\n"
              "out-of-order with a heavy >150ms share (real-time budget blown).\n");

  header("Table 6", "MPTCP per-path RTT and OFO delay, mean±stderr (ms)",
         "paper RTT: AT&T 100-114, Verizon 228-399, Sprint 203-480, WiFi 29-56;\n"
         "     paper OFO: AT&T 13-31, Verizon 37-68, Sprint 91-302");
  const auto table = [&](const char* title, const auto& cell) {
    std::printf("\n%s\n%-10s", title, "carrier");
    for (const std::uint64_t s : large) std::printf("%16s", experiment::fmt_size(s).c_str());
    std::printf("\n");
    for (const Carrier carrier : experiment::all_carriers()) {
      std::printf("%-10s", to_string(carrier).c_str());
      for (const std::uint64_t size : large) {
        std::printf("%16s", pm(cell(c.at(to_string(carrier), size)), 1).c_str());
      }
      std::printf("\n");
    }
  };
  table("RTT (ms): cellular path of the MPTCP connection",
        [](const std::vector<RunResult>& rs) { return experiment::per_run_mean_rtt_ms(rs, true); });
  std::printf("%-10s", "WiFi");
  for (const std::uint64_t size : large) {
    std::printf("%16s", pm(experiment::per_run_mean_rtt_ms(c.at("AT&T", size), false), 1).c_str());
  }
  std::printf("\n");
  table("OFO delay (ms): connection-level reordering wait",
        [](const std::vector<RunResult>& rs) { return experiment::per_run_mean_ofo_ms(rs); });
  std::printf("\nShape check: RTT and OFO delay both ordered Sprint >= Verizon > AT&T;\n"
              "WiFi RTT flat and smallest.\n");
  return 0;
}
