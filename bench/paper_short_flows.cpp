// Short-flow campaigns (§4.2 home WiFi, §4.3 coffee-shop hotspot), each
// with AT&T LTE as the second path, 8 KB .. 4 MB objects: single path vs
// 2-path and 4-path MPTCP per controller. Two sets of runs yield every
// view:
//
//   Figure 4 — home download times (coupled / olia / reno).
//     Paper shape: at 8 KB everything tracks SP-WiFi (cellular never joins
//     in time); with growing size MP-4 > MP-2 > SP; controllers
//     indistinguishable for small sizes.
//   Figure 5 — home cellular fraction of coupled MP-2 and MP-4.
//     Paper shape: zero below 64 KB (the transfer finishes before the
//     joins can contribute; MP-4's two WiFi subflows make this stricter),
//     rising towards ~50% at 4 MB.
//   Table 3 — home single-path loss (%) and RTT (ms).
//   Figure 6 — hotspot download times over a loaded public WiFi (15-20
//     active customers); olia omitted as in the paper.
//     Paper shape: WiFi is unreliable and not always the best path even
//     for small sizes; MPTCP stays close to the best available path.
//   Figure 7 — MP-2 cellular fraction (coupled, reno), hotspot vs home.
//     Paper shape: more traffic shifts to cellular than at home because
//     the loaded public WiFi is unreliable and lossy.
//   Table 4 — hotspot single-path loss (%) and RTT (ms).
#include "common.h"

using namespace mpr;
using namespace mpr::bench;

namespace {

const PaperPath kPaperHomeWifi{{"1.0", "1.6", "1.4", "2.1"}, {"22.3", "38.7", "33.9", "23.9"}};
const PaperPath kPaperHomeAtt{{"~", "~", "~", "~"}, {"60.8", "64.9", "73.2", "140.9"}};
const PaperPath kPaperHotspotWifi{{"5.3", "3.1", "4.1", "2.9"},
                                  {"44.2", "26.0", "21.9", "21.3"}};
const PaperPath kPaperHotspotAtt{{"~", "~", "~", "0.1"}, {"62.4", "63.4", "61.4", "80.8"}};

const std::vector<FractionRow> kMp2Rows{{"coupled", "MP-2(coupled)"}, {"reno", "MP-2(reno)"}};

}  // namespace

int main() {
  header("Figure 4", "Small-flow download time, AT&T + home WiFi (box, seconds)");
  const std::vector<std::uint64_t> sizes{8 * kKB, 64 * kKB, 512 * kKB, 4 * kMB};
  const int n = reps(12);
  const Campaign home = run_by_size(
      sizes, n,
      [](std::uint64_t size) {
        return path_mode_entries(testbed_for(Carrier::kAtt), size,
                                 {core::CcKind::kCoupled, core::CcKind::kOlia, core::CcKind::kReno});
      },
      [](std::uint64_t size) { return 404 + size; });
  const Campaign hotspot = run_by_size(
      sizes, n,
      [](std::uint64_t size) {
        return path_mode_entries(testbed_for(Carrier::kAtt, /*hotspot=*/true), size,
                                 {core::CcKind::kCoupled, core::CcKind::kReno});
      },
      [](std::uint64_t size) { return 660 + size; });
  print_download_times(home, 16);
  std::printf("\nShape check: 8KB ~ SP-WiFi for all MPTCP variants; MP-4 <= MP-2 <= SP\n"
              "medians as size grows; controllers differ little below 4MB.\n");

  header("Figure 5", "Small flows: cellular traffic fraction (AT&T + home WiFi)");
  print_cell_fraction(home, "config", 8,
                      {{"MP-2", "MP-2(coupled)"}, {"MP-4", "MP-4(coupled)"}});
  std::printf("\nShape check: ~0%% at 8-64KB, rising with size, ~50%% or more at 4MB;\n"
              "MP-4 uses cellular less than MP-2 for small objects.\n");

  header("Table 3", "Small-flow single-path loss (%) and RTT (ms), mean±stderr",
         "paper: WiFi loss 1.0-2.1%, RTT 22-39ms; AT&T loss ~0, RTT 61-141ms");
  print_path_chars("WiFi", home, "SP-WiFi", false, kPaperHomeWifi);
  print_path_chars("AT&T", home, "SP-Cell", true, kPaperHomeAtt);
  std::printf("\nShape check: WiFi ~1-2%% loss / flat ~20-40ms RTT; AT&T near-zero\n"
              "loss / RTT growing with size.\n");

  header("Figure 6", "Coffee-shop public WiFi: download time (box, seconds)",
         "loaded AP (background contention); olia omitted as in the paper");
  print_download_times(hotspot, 16);
  std::printf("\nShape check: SP-WiFi highly variable and often beaten by SP-AT&T;\n"
              "MPTCP close to the best path at every size.\n");

  header("Figure 7", "Coffee shop: cellular traffic fraction");
  std::printf("\nPublic hotspot WiFi (MP-2):\n");
  print_cell_fraction(hotspot, "cc", 10, kMp2Rows);
  std::printf("\nHome WiFi (MP-2):\n");
  print_cell_fraction(home, "cc", 10, kMp2Rows);
  std::printf("\nShape check: hotspot rows >= home rows at each size (offload to the\n"
              "reliable cellular path under WiFi contention); coupled favours\n"
              "cellular more than reno as size grows.\n");

  header("Table 4", "Coffee-shop single-path loss (%) and RTT (ms), mean±stderr",
         "paper: hotspot WiFi loss 2.9-5.3%, RTT 21-44ms; AT&T loss ~0-0.1, RTT 61-81ms");
  print_path_chars("WiFi(hotspot)", hotspot, "SP-WiFi", false, kPaperHotspotWifi);
  print_path_chars("AT&T", hotspot, "SP-Cell", true, kPaperHotspotAtt);
  std::printf("\nShape check: hotspot WiFi loss well above the home network's (~2x);\n"
              "AT&T unaffected by the WiFi-side load.\n");
  return 0;
}
