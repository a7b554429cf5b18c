// Single-measurement driver: performs one HTTP download on a fresh testbed
// (with ping warm-up, as in §3.2) and extracts every metric the paper
// reports. Session is the run itself; run_download is its one-call form.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/http.h"
#include "app/ping.h"
#include "core/connection.h"
#include "experiment/testbed.h"
#include "netem/energy.h"
#include "netem/faults.h"
#include "sim/stats.h"

namespace mpr::experiment {

enum class PathMode { kSingleWifi, kSingleCellular, kMptcp2, kMptcp4 };

[[nodiscard]] std::string to_string(PathMode m);
/// Campaign-spec/CLI name -> mode: sp-wifi | sp-cell | mp2 | mp4.
[[nodiscard]] std::optional<PathMode> mode_from_string(const std::string& s);

/// One measurement: the MPTCP stack it runs (the base; its `subflow`
/// settings also configure the single-path TCP runs) plus the run's own
/// fields below.
///
/// Receive buffer: one knob, `subflow.receive_buffer`. It sizes the
/// single-path endpoints and the MPTCP connection-level reorder buffer;
/// MPTCP subflows advertise that connection window.
struct RunConfig : core::MptcpConfig {
  PathMode mode{PathMode::kMptcp2};
  std::uint64_t file_bytes{512 * 1024};
  bool ping_warmup{true};
  /// Give up (incomplete run) after this much simulated time: events at
  /// the bound still run, the first one after it does not.
  sim::Duration timeout{sim::Duration::seconds(3600)};
  /// Watchdog: hard-abort the run (RunOutcome::kWatchdogAbort) at this
  /// bound, regardless of progress, cutting it the way `timeout` does. It
  /// applies only when shorter than `timeout`. Zero (the default) disables
  /// the cap; the event-step sequence is then untouched, preserving
  /// bit-identical replays of older configs.
  sim::Duration max_sim_time{};
  /// Watchdog: hard-abort after this many executed events (0 = unlimited).
  /// Catches livelocks that burn events without advancing the clock.
  std::uint64_t max_events{0};
  /// Scripted fault timeline applied to the run's access networks ("wifi" /
  /// "cell"; see netem::FaultSchedule). Times are relative to run start.
  /// Interface down/up events additionally drive REMOVE_ADDR / re-join at
  /// the MPTCP client. A value type, so campaign runners (run_series /
  /// run_matrix) replay the same script in every repetition and stay
  /// deterministic. Connection-level `sched` events switch the dispatch
  /// strategy of the client and server connections.
  netem::FaultSchedule faults;
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

/// One measurement on a fresh testbed, split so a caller can reach the run
/// it measures. The constructor builds the testbed and wires it: the
/// single-path or MPTCP apps, the scripted faults (apply_fault), the device
/// energy meters and the ping warm-up (§3.2), which starts the download
/// once every active interface has answered, or at once without
/// `ping_warmup`. Between the constructor and run() a caller may attach to
/// testbed(), client_connection() and mptcp_server(); an observer that only
/// reads changes no simulated output. run() runs until the download
/// completes, the MPTCP connection fails or the timeout or a cap cuts it,
/// then collects the result.
/// Everything stays readable afterwards.
class Session {
 public:
  Session(const TestbedConfig& testbed_cfg, const RunConfig& run_cfg);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] Testbed& testbed() { return tb_; }
  /// The client's MPTCP connection; null in the single-path modes.
  [[nodiscard]] core::MptcpConnection* client_connection() {
    return mp_client_ ? &mp_client_->connection() : nullptr;
  }
  /// The MPTCP HTTP server; null in the single-path modes.
  [[nodiscard]] app::MptcpHttpServer* mptcp_server() { return mp_server_.get(); }

  /// Runs the measurement and collects its result. Call once.
  [[nodiscard]] RunResult run();

 private:
  void start_measurement();
  /// Applies one scripted fault: its netem half on the access network the
  /// event names ("wifi" or "cell"; other links are ignored), then, in an
  /// MPTCP run, the stack's reaction: REMOVE_ADDR or re-join at the client
  /// for ifdown / ifup, and a `sched` switch at the client and every server
  /// connection.
  void apply_fault(const netem::FaultEvent& ev);
  void collect(RunResult& result);

  const RunConfig cfg_;
  Testbed tb_;
  netem::EnergyMeter wifi_meter_;
  netem::EnergyMeter cell_meter_;
  std::unique_ptr<app::MptcpHttpServer> mp_server_;
  std::unique_ptr<app::MptcpHttpClient> mp_client_;
  std::unique_ptr<app::TcpHttpServer> sp_server_;
  std::unique_ptr<app::TcpHttpClient> sp_client_;
  std::vector<std::unique_ptr<app::PingAgent>> pingers_;
  int warmups_pending_{0};
  app::FetchResult fetch_;
  bool done_{false};
};

/// Builds a fresh testbed and performs one measurement: Session{...}.run().
[[nodiscard]] RunResult run_download(const TestbedConfig& testbed_cfg, const RunConfig& run_cfg);

}  // namespace mpr::experiment
