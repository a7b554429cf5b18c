// TCP endpoint configuration. Defaults follow the paper's testbed settings
// (§3.1): initial window of 10 segments, ssthresh 64 KB, SACK on, metric
// caching disabled (there is no cache in this implementation), 8 MB receive
// buffer. Settings that no experiment varies are the constants below;
// TcpConfig holds the ones a bench or a tool sets.
#pragma once

#include <cstdint>
#include <limits>

#include "sim/time.h"

namespace mpr::tcp {

class MetricsCache;

/// Maximum segment payload (bytes). 1400 leaves room for TCP/MPTCP options
/// within a 1500-byte MTU.
inline constexpr std::uint32_t kMss = 1400;

inline constexpr std::uint32_t kInitialCwndSegments = 10;

inline constexpr sim::Duration kMinRto = sim::Duration::millis(200);  // Linux TCP_RTO_MIN
inline constexpr sim::Duration kInitialRto = sim::Duration::seconds(1);
inline constexpr sim::Duration kMaxRto = sim::Duration::seconds(60);

/// SYN (and SYN-ACK) retransmissions before a handshake gives up (Linux
/// tcp_syn_retries). The backoff doubles from kInitialRto and the last wait
/// is capped at kMaxRto, so an active open fails 1 + 2 + 4 + 8 + 16 + 32 +
/// 60 = 123 s after its first SYN.
inline constexpr std::uint32_t kMaxSynRetries = 6;

/// Consecutive RTOs after which the path is considered dead (MPTCP uses
/// this both to fail over and to reinject stranded data).
inline constexpr std::uint32_t kDeadRtoThreshold = 2;
/// Once a path looks dead, stop doubling the RTO past this cap so probes
/// keep flowing and recovery after a blackout is prompt (full exponential
/// backoff to kMaxRto can leave the flow idle for a minute after the link
/// is back).
inline constexpr sim::Duration kDeadRtoCap = sim::Duration::seconds(8);
static_assert(kDeadRtoCap <= kMaxRto);

inline constexpr std::uint32_t kDupackThreshold = 3;

inline constexpr sim::Duration kDelackTimeout = sim::Duration::millis(40);
/// Linux-style quick-ack phase: the first N data segments are acknowledged
/// immediately so slow start is not throttled at connection startup.
inline constexpr std::uint32_t kQuickackSegments = 16;

struct TcpConfig {
  /// Initial slow-start threshold in bytes. The paper pins this to 64 KB to
  /// avoid cellular RTT inflation from an unbounded slow start; set to
  /// `kInfiniteSsthresh` to reproduce the Linux default for the ablation.
  std::uint64_t initial_ssthresh{64 * 1024};

  /// Receive buffer of a single-path endpoint, and the connection-level
  /// reorder buffer of an MPTCP connection (whose subflows advertise the
  /// connection window, not this one).
  std::uint64_t receive_buffer{8 * 1024 * 1024};

  /// F-RTO spurious-timeout detection (RFC 5682). After an RTO, instead of
  /// immediately go-back-N retransmitting, probe with new data; if the next
  /// ACKs advance past the probe the timeout was spurious (a delay spike,
  /// not loss) and the congestion state is restored. Off by default — the
  /// kernel the paper measured (3.5) shipped with it disabled, and the
  /// cellular "loss rates" of Tables 2/5 include exactly the spurious
  /// retransmission bursts F-RTO suppresses (see the ablation bench).
  bool frto_enabled{false};

  /// Per-destination metric cache (Linux tcp_metrics). Null — the paper's
  /// testbed setting (§3.1) — disables caching; otherwise new connections
  /// inherit the cached post-loss ssthresh and store updates on loss.
  /// Non-owning; must outlive every endpoint configured with it.
  MetricsCache* metrics_cache{nullptr};
};

inline constexpr std::uint64_t kInfiniteSsthresh = std::numeric_limits<std::uint64_t>::max();

}  // namespace mpr::tcp
