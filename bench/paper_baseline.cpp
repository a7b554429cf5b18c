// Baseline campaign (§4.1): single-path TCP over WiFi and each cellular
// carrier vs 2-path MPTCP (coupled) per carrier, 64 KB .. 16 MB objects,
// aggregated over day periods. One set of runs yields every view:
//
//   Figure 2 — download times of every entry.
//     Paper shape: MPTCP tracks the best single path for every size;
//     SP-WiFi wins small sizes (low RTT); LTE wins mid sizes (loss-free);
//     for large sizes MPTCP at least matches the best path; Sprint 3G is
//     far slowest.
//   Figure 3 — fraction of traffic on the cellular path, from the MP runs.
//     Paper shape: grows with object size (MPTCP offloads from the
//     fast-but-lossy WiFi path to the loss-free cellular path); Sprint 3G
//     stays low (its path is too slow to attract traffic).
//   Table 2 — single-path loss (%) and RTT (ms), from the SP runs, with
//     the paper's values beside them ("Comcast" is the home WiFi).
#include "common.h"

using namespace mpr;
using namespace mpr::bench;

namespace {

// Rows from Table 2 of the paper (64KB, 512KB, 2MB, 16MB).
const PaperPath kPaperAtt{{"0.03", "0.04", "0.06", "0.31"}, {"70.1", "104.9", "138.2", "126.0"}};
const PaperPath kPaperVzw{{"~", "~", "0.31", "1.75"}, {"92.4", "204.7", "422.6", "624.7"}};
const PaperPath kPaperSpr{{"0.37", "8.76", "3.93", "1.64"},
                          {"381.3", "972.4", "1209.8", "703.8"}};
const PaperPath kPaperWifi{{"0.43", "0.20", "2.02", "0.68"}, {"26.8", "53.1", "56.8", "32.7"}};

std::vector<MatrixEntry> baseline_entries(std::uint64_t size) {
  std::vector<MatrixEntry> entries;
  RunConfig wifi;
  wifi.mode = PathMode::kSingleWifi;
  wifi.file_bytes = size;
  entries.push_back({"SP-WiFi", testbed_for(Carrier::kAtt), wifi});
  for (const Carrier c : experiment::all_carriers()) {
    RunConfig sp;
    sp.mode = PathMode::kSingleCellular;
    sp.file_bytes = size;
    entries.push_back({"SP-" + to_string(c), testbed_for(c), sp});
    RunConfig mp;
    mp.mode = PathMode::kMptcp2;
    mp.file_bytes = size;
    entries.push_back({"MP-" + to_string(c), testbed_for(c), mp});
  }
  return entries;
}

}  // namespace

int main() {
  header("Figure 2", "Baseline download time (box: min/q1/median/q3/max, seconds)",
         "coupled controller; 2-path MPTCP = WiFi + carrier");
  const Campaign c = run_by_size({64 * kKB, 512 * kKB, 2 * kMB, 16 * kMB}, reps(12),
                                 baseline_entries, [](std::uint64_t) { return 20260707; });
  print_download_times(c, 12);
  std::printf("\nShape check: MPTCP ~= best single path per size; WiFi best at 64KB;\n"
              "LTE competitive from 512KB; MP >= best SP at 16MB except Sprint.\n");

  header("Figure 3", "Fraction of traffic carried by the cellular path (2-path MPTCP, coupled)");
  std::vector<FractionRow> mp_rows;
  for (const Carrier carrier : experiment::all_carriers()) {
    mp_rows.push_back({to_string(carrier), "MP-" + to_string(carrier)});
  }
  print_cell_fraction(c, "carrier", 10, mp_rows);
  std::printf("\nShape check: rises with size for LTE carriers (offload to the\n"
              "loss-free path); Sprint stays below ~30%%.\n");

  header("Table 2", "Baseline single-path loss (%) and RTT (ms), mean±stderr",
         "'paper' columns give the values reported in the paper");
  print_path_chars("AT&T", c, "SP-AT&T", true, kPaperAtt, 10);
  print_path_chars("Verizon", c, "SP-Verizon", true, kPaperVzw, 10);
  print_path_chars("Sprint", c, "SP-Sprint", true, kPaperSpr, 10);
  print_path_chars("Comcast", c, "SP-WiFi", false, kPaperWifi, 10);
  std::printf("\nShape check: cellular loss lowest on LTE, highest on Sprint; WiFi\n"
              "RTT lowest and flat; cellular RTT grows with size (bufferbloat),\n"
              "Sprint >> Verizon > AT&T.\n");
  return 0;
}
