// Extension (paper §6 future work) — energy cost of multipath: "the
// relationship between the desired MPTCP performance gain and the
// additional energy cost" of the second radio.
//
// Compares download time and device radio energy for single-path WiFi,
// single-path LTE, 2-path MPTCP and 2-path MPTCP with the cellular subflow
// in backup mode (RFC 6824 B bit), across object sizes.
#include "common.h"

using namespace mpr;
using namespace mpr::bench;

int main() {
  header("Extension: energy", "Download time vs device radio energy (AT&T + home WiFi)",
         "energy: active airtime + RRC/PSM tail + idle, Huang et al. power model");
  const int n = reps(8);
  const std::vector<std::uint64_t> sizes{64 * kKB, 1 * kMB, 4 * kMB, 16 * kMB};
  const TestbedConfig tb = testbed_for(Carrier::kAtt);

  for (const std::uint64_t size : sizes) {
    std::vector<MatrixEntry> entries;
    {
      RunConfig rc;
      rc.mode = PathMode::kSingleWifi;
      rc.file_bytes = size;
      entries.push_back({"SP-WiFi", tb, rc});
      rc.mode = PathMode::kSingleCellular;
      entries.push_back({"SP-LTE", tb, rc});
      rc.mode = PathMode::kMptcp2;
      entries.push_back({"MP-2", tb, rc});
      rc.backup_local_addrs = {experiment::kClientCellAddr};
      entries.push_back({"MP-2 backup", tb, rc});
    }
    const auto results = experiment::run_matrix(entries, n, 3030 + size);
    std::printf("\n-- object size %s --\n", experiment::fmt_size(size).c_str());
    std::printf("  %-12s %-14s %-12s %-12s %-10s\n", "config", "time (mean)", "wifi J",
                "cell J", "total J");
    for (const MatrixEntry& e : entries) {
      const auto& rs = results.at(e.label);
      double wifi_j = 0;
      double cell_j = 0;
      int completed = 0;
      for (const RunResult& r : rs) {
        if (!r.completed) continue;
        ++completed;
        wifi_j += r.wifi_energy_j;
        cell_j += r.cellular_energy_j;
      }
      if (completed == 0) continue;
      wifi_j /= completed;
      cell_j /= completed;
      std::printf("  %-12s %-14s %-12.1f %-12.1f %-10.1f\n", e.label.c_str(),
                  mean_s(rs).c_str(), wifi_j, cell_j, wifi_j + cell_j);
    }
  }
  std::printf(
      "\nShape check: the LTE tail (~12 J) dominates small transfers — MPTCP's\n"
      "second radio is pure energy overhead there for little speedup. For large\n"
      "transfers MPTCP buys real time at sub-linear extra energy, and backup\n"
      "mode recovers most of the cellular energy while giving up the speedup.\n");
  return 0;
}
