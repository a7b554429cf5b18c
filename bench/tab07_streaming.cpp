// Table 7 / §6 — Video-streaming workloads over MPTCP: replays the
// measured Netflix/YouTube pattern (large prefetch + periodic blocks) over
// 2-path MPTCP and single-path WiFi and reports prefetch time, block fetch
// latency and late blocks (rebuffering risk).
#include "app/streaming.h"
#include "common.h"
#include "experiment/testbed.h"

using namespace mpr;
using namespace mpr::bench;

namespace {

struct SessionResult {
  double prefetch_s{0};
  Summary block_s;
  std::uint64_t late{0};
  std::uint64_t underruns{0};
  double underrun_s{0};
  std::uint64_t missed_frames{0};
  bool completed{false};
};

SessionResult run_session(const app::StreamingWorkload& wl, bool multipath, Carrier carrier,
                          std::uint64_t seed) {
  experiment::TestbedConfig tb_cfg = testbed_for(carrier);
  tb_cfg.seed = seed;
  experiment::Testbed tb{tb_cfg};
  core::MptcpConfig cfg;

  app::MptcpHttpServer server{tb.server(), experiment::kHttpPort, cfg, {},
                              [wl](std::uint64_t idx) { return wl.object_size(idx); }};
  std::vector<net::IpAddr> addrs{experiment::kClientWifiAddr};
  if (multipath) addrs.push_back(experiment::kClientCellAddr);
  app::MptcpHttpClient client{tb.client(), cfg, addrs,
                              net::SocketAddr{experiment::kServerAddr1, experiment::kHttpPort}};
  app::StreamingSession session{tb.sim(), client, wl};
  session.start();
  tb.sim().run_while([&] { return !session.finished(); },
                     tb.sim().now() + wl.period * static_cast<double>(wl.blocks + 4) +
                         sim::Duration::seconds(600));

  SessionResult out;
  out.completed = session.finished();
  if (!out.completed) return out;
  out.prefetch_s = session.result().prefetch_time.to_seconds();
  std::vector<double> blocks;
  for (const sim::Duration d : session.result().block_times) blocks.push_back(d.to_seconds());
  out.block_s = summarize(std::move(blocks));
  out.late = session.result().late_blocks;
  out.underruns = session.result().underruns;
  out.underrun_s = session.result().underrun_time.to_seconds();
  out.missed_frames = session.result().deadline_missed_frames;
  return out;
}

void run_workload(const char* name, app::StreamingWorkload wl, int n) {
  // Playback model for the deadline-miss metric: 24 fps video, so a block
  // carries period × 24 frames.
  wl.frames_per_block = static_cast<std::uint64_t>(wl.period.to_seconds() * 24.0);
  std::printf("\n-- %s (prefetch %.1fMB, block %.1fMB, period %.1fs, %llu blocks) --\n", name,
              static_cast<double>(wl.prefetch_bytes) / kMB,
              static_cast<double>(wl.block_bytes) / kMB, wl.period.to_seconds(),
              static_cast<unsigned long long>(wl.blocks));
  for (const bool multipath : {false, true}) {
    double prefetch = 0;
    double block_mean = 0;
    double block_max = 0;
    std::uint64_t late = 0;
    std::uint64_t underruns = 0;
    double underrun_s = 0;
    std::uint64_t missed = 0;
    int completed = 0;
    for (int i = 0; i < n; ++i) {
      const SessionResult r =
          run_session(wl, multipath, Carrier::kAtt, 1616 + static_cast<std::uint64_t>(i));
      if (!r.completed) continue;
      ++completed;
      prefetch += r.prefetch_s;
      block_mean += r.block_s.mean;
      block_max = std::max(block_max, r.block_s.max);
      late += r.late;
      underruns += r.underruns;
      underrun_s += r.underrun_s;
      missed += r.missed_frames;
    }
    if (completed == 0) {
      std::printf("  %-22s (no completed sessions)\n", multipath ? "MPTCP (WiFi+AT&T)" : "SP-WiFi");
      continue;
    }
    std::printf(
        "  %-22s prefetch=%6.2fs  block mean=%5.2fs max=%5.2fs  late=%llu/%llu  "
        "rebuffers=%llu (%.2fs)  missed frames=%llu\n",
        multipath ? "MPTCP (WiFi+AT&T)" : "SP-WiFi", prefetch / completed,
        block_mean / completed, block_max, static_cast<unsigned long long>(late),
        static_cast<unsigned long long>(wl.blocks * static_cast<std::uint64_t>(completed)),
        static_cast<unsigned long long>(underruns), underrun_s,
        static_cast<unsigned long long>(missed));
  }
}

}  // namespace

int main() {
  header("Table 7 / Section 6", "Streaming workloads over MPTCP",
         "workload parameters reproduce Table 7's measurements");
  const int n = reps(3);
  run_workload("Netflix iPad", app::StreamingWorkload::netflix_ipad(), n);
  run_workload("Netflix Android", app::StreamingWorkload::netflix_android(), n);
  run_workload("YouTube", app::StreamingWorkload::youtube(), n);
  std::printf("\nShape check: MPTCP cuts the prefetch time vs single-path WiFi and\n"
              "keeps periodic blocks comfortably inside their period.\n");
  return 0;
}
