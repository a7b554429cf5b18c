// Congestion-controller comparison (§2.2.2 / §4.2): runs the same 16 MB
// download under uncoupled reno, coupled (LIA) and OLIA over WiFi + LTE,
// printing download time, per-path shares and per-path windows' behaviour.
//
// Run: ./build/examples/controller_comparison
#include <cstdio>

#include "experiment/run.h"

using namespace mpr;
using namespace mpr::experiment;

namespace {

void run(core::CcKind cc) {
  TestbedConfig config;
  config.seed = 3;
  config.cellular = netem::att_lte();
  RunConfig rc;
  rc.cc = cc;
  rc.file_bytes = 16ull << 20;
  rc.ping_warmup = false;
  const RunResult r = run_download(config, rc);

  const double total = static_cast<double>(r.wifi.bytes_received + r.cellular.bytes_received);
  std::printf("  %-8s %6.2f s   wifi %4.0f%% / cell %4.0f%%\n",
              core::to_string(cc).c_str(), r.download_time_s,
              100.0 * static_cast<double>(r.wifi.bytes_received) / total,
              100.0 * static_cast<double>(r.cellular.bytes_received) / total);
}

}  // namespace

int main() {
  std::printf("16 MB download over home WiFi + AT&T LTE, one run per controller\n");
  std::printf("  %-8s %-10s %s\n", "cc", "time", "path shares");
  for (const core::CcKind cc :
       {core::CcKind::kReno, core::CcKind::kCoupled, core::CcKind::kOlia}) {
    run(cc);
  }
  std::printf("\nreno is fastest because each subflow competes as an independent\n"
              "TCP flow (unfair to cross traffic); the coupled controllers shift\n"
              "traffic off the lossy WiFi path onto the loss-free LTE path.\n");
  return 0;
}
