// Figure 8 — Simultaneous vs delayed SYN: download time of 2-path MPTCP
// when the MP_JOIN SYN is fired together with the initial SYN (§4.1.2
// modification) versus the standard delayed establishment.
//
// Paper shape: ~14% mean reduction at 512 KB, ~5% at 2 MB, negligible for
// very small objects (the initial window carries them entirely).
#include "common.h"

using namespace mpr;
using namespace mpr::bench;

int main() {
  header("Figure 8", "Simultaneous vs delayed SYN (2-path MPTCP, coupled; seconds)",
         "paper: -14% at 512KB, -5% at 2MB, ~0 for tiny objects");
  const int n = reps(16);
  const std::vector<std::uint64_t> sizes{8 * kKB, 64 * kKB, 512 * kKB, 2 * kMB};
  const TestbedConfig tb = testbed_for(Carrier::kAtt);

  std::printf("%-8s %-16s %-16s %s\n", "size", "delayed (mean)", "simultaneous", "reduction");
  for (const std::uint64_t size : sizes) {
    // Paired runs: both establishment modes see the identical testbed
    // (same seed, same radio conditions), so the comparison isolates the
    // SYN scheduling instead of run-to-run path variation.
    // The pairs are independent: run them in parallel, indexed by rep.
    std::vector<RunResult> delayed_rs(static_cast<std::size_t>(n));
    std::vector<RunResult> simsyn_rs(static_cast<std::size_t>(n));
    sim::parallel_for_index(delayed_rs.size(), jobs(), [&](std::size_t i) {
      TestbedConfig tbi = tb;
      tbi.seed = 808 + size + i * 1315423911ull;
      RunConfig delayed;
      delayed.mode = PathMode::kMptcp2;
      delayed.file_bytes = size;
      RunConfig simultaneous = delayed;
      simultaneous.simultaneous_syns = true;
      delayed_rs[i] = run_download(tbi, delayed);
      simsyn_rs[i] = run_download(tbi, simultaneous);
    });
    const Summary d = experiment::download_time_summary(delayed_rs);
    const Summary s = experiment::download_time_summary(simsyn_rs);
    const double reduction = d.mean > 0 ? (d.mean - s.mean) / d.mean * 100.0 : 0.0;
    std::printf("%-8s %-16s %-16s %+.1f%%\n", experiment::fmt_size(size).c_str(),
                mean_s(delayed_rs).c_str(), mean_s(simsyn_rs).c_str(), -reduction);
  }
  std::printf("\nShape check: largest relative gain in the mid-size range (512KB-2MB),\n"
              "negligible at 8KB.\n");
  return 0;
}
