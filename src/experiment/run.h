// Single-measurement driver: performs one HTTP download on a fresh testbed
// (with ping warm-up, as in §3.2) and extracts every metric the paper
// reports.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "app/streaming.h"
#include "core/connection.h"
#include "experiment/testbed.h"
#include "netem/faults.h"
#include "sim/stats.h"

namespace mpr::experiment {

enum class PathMode { kSingleWifi, kSingleCellular, kMptcp2, kMptcp4 };

[[nodiscard]] std::string to_string(PathMode m);
/// Campaign-spec/CLI name -> mode: sp-wifi | sp-cell | mp2 | mp4.
[[nodiscard]] std::optional<PathMode> mode_from_string(const std::string& s);

struct RunConfig {
  PathMode mode{PathMode::kMptcp2};
  core::CcKind cc{core::CcKind::kCoupled};
  core::SchedulerKind scheduler{core::SchedulerKind::kMinRtt};
  /// Per-subflow shares for the weighted scheduler (see
  /// core::MptcpConfig::scheduler_weights).
  std::vector<double> scheduler_weights;
  std::uint64_t file_bytes{512 * 1024};
  bool simultaneous_syns{false};
  bool penalization{false};
  std::uint64_t ssthresh{64 * 1024};
  std::uint64_t receive_buffer{8 * 1024 * 1024};
  /// F-RTO spurious-timeout detection (extension ablation; the paper's
  /// kernel shipped it disabled).
  bool frto{false};
  bool ping_warmup{true};
  /// Join the cellular subflow in backup mode (RFC 6824 B bit): it carries
  /// data only when the WiFi path fails. Extension experiment.
  bool cellular_backup{false};
  /// Give up (incomplete run) after this much simulated time.
  sim::Duration timeout{sim::Duration::seconds(3600)};
  /// Watchdog: hard-abort the run (RunOutcome::kWatchdogAbort) once the
  /// simulated clock passes this bound, regardless of progress. Zero (the
  /// default) disables the cap; the event-step sequence is then untouched,
  /// preserving bit-identical replays of older configs.
  sim::Duration max_sim_time{};
  /// Watchdog: hard-abort after this many executed events (0 = unlimited).
  /// Catches livelocks that burn events without advancing the clock.
  std::uint64_t max_events{0};
  /// Attach/verify the RFC 6824 §3.3 DSS checksum (detects middlebox
  /// payload mangling at the cost of 2 option bytes per data segment).
  bool dss_checksum{false};
  /// Tear the connection down on a checksum failure instead of the RFC 6824
  /// §3.6 MP_FAIL recovery.
  bool checksum_teardown{false};
  /// Allow RFC 6824 §3.7 fallback to plain TCP when a middlebox strips
  /// MPTCP options. Disabled: stripped handshakes fail (client) or get RST
  /// (server) instead.
  bool tcp_fallback{true};
  /// Scripted fault timeline applied to the run's access networks ("wifi" /
  /// "cell"; see netem::FaultSchedule). Times are relative to run start.
  /// Interface down/up events additionally drive REMOVE_ADDR / re-join at
  /// the MPTCP client. A value type, so campaign runners (run_series /
  /// run_matrix) replay the same script in every repetition and the PR 1
  /// determinism guarantee is preserved. Connection-level `sched` events
  /// switch the dispatch strategy of the client and server connections.
  netem::FaultSchedule faults;
  /// Drive the paper's §6 streaming pattern (prefetch + periodic blocks)
  /// instead of one bulk download; `file_bytes` is ignored. Multipath modes
  /// only (the session runs over the MPTCP HTTP client). Underrun and
  /// frame-deadline telemetry lands in RunResult::sim_stats.streaming_*.
  std::optional<app::StreamingWorkload> streaming;
};

/// Per-interface aggregate (over all subflows using that interface).
struct PathStats {
  std::uint64_t bytes_received{0};          // payload at the client
  std::uint64_t data_packets_sent{0};       // at the server
  std::uint64_t rexmit_packets{0};
  std::vector<double> rtt_ms;               // server-side samples
  std::size_t subflows{0};

  [[nodiscard]] double loss_rate() const {
    return data_packets_sent == 0 ? 0.0
                                  : static_cast<double>(rexmit_packets) /
                                        static_cast<double>(data_packets_sent);
  }
};

/// How a run ended, beyond the completed/failed pair: the watchdog outcome
/// distinguishes "aborted by the max_sim_time / max_events cap" from an
/// ordinary timeout so campaign code can flag runaway configurations.
enum class RunOutcome { kCompleted, kTimeout, kConnectionFailed, kWatchdogAbort };

[[nodiscard]] std::string to_string(RunOutcome o);

struct RunResult {
  bool completed{false};
  /// The connection errored out (every subflow dead past the deadline or
  /// the initial handshake gave up) rather than merely timing out.
  bool failed{false};
  RunOutcome outcome{RunOutcome::kTimeout};
  double download_time_s{0};
  /// Application bytes delivered in order at the client (exactly-once
  /// accounting for the fault experiments).
  std::uint64_t delivered_bytes{0};
  /// Duplicate arrivals absorbed by the connection-level reorder buffer.
  std::uint64_t duplicate_packets{0};
  PathStats wifi;
  PathStats cellular;
  std::vector<double> ofo_ms;  // connection-level out-of-order delay samples
  std::uint64_t penalizations{0};
  std::uint64_t reinjections{0};
  /// Chunks the redundant scheduler duplicated onto a second subflow
  /// (0 under every other strategy) — the volume of deliberately
  /// duplicated traffic, kept apart from loss-driven reinjections.
  std::uint64_t redundant_chunks{0};
  /// Device radio energy over the measurement, including the post-transfer
  /// tail (energy extension, paper §6 future work).
  double wifi_energy_j{0};
  double cellular_energy_j{0};
  /// Simulator-internal telemetry for this run: events executed and packet
  /// pool traffic (allocs = heap misses, reuses = recycled packets).
  sim::SimStats sim_stats;

  [[nodiscard]] double cellular_fraction() const {
    const double total =
        static_cast<double>(wifi.bytes_received + cellular.bytes_received);
    return total > 0 ? static_cast<double>(cellular.bytes_received) / total : 0.0;
  }
};

/// Builds a fresh testbed and performs one measurement.
[[nodiscard]] RunResult run_download(const TestbedConfig& testbed_cfg, const RunConfig& run_cfg);

}  // namespace mpr::experiment
