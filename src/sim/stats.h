// Per-run resource telemetry.
//
// A SimStats snapshot travels with every RunResult so campaign code (and the
// perf regression tests) can assert on the simulator's allocation behaviour,
// not just its outputs: how many events ran, how many Packet objects were
// heap-allocated vs recycled from the run's PacketPool, and the pool's
// high-water mark. The packet hot path is considered allocation-free when
// pool_allocated_packets stops growing once a run reaches steady state. A
// pool adopts the packet storage of its thread's previous pool, so a run
// after the first on a thread typically allocates none.
#pragma once

#include <cstdint>

namespace mpr::sim {

struct SimStats {
  /// Events executed by the run's EventQueue.
  std::uint64_t events_executed{0};
  /// Packet objects heap-allocated by the run's PacketPool (pool misses —
  /// each one grew the population past the storage the pool adopted).
  std::uint64_t pool_allocated_packets{0};
  /// Pool acquisitions served without heap traffic: recycled from the
  /// freelist or drawn from adopted storage.
  std::uint64_t pool_reused_packets{0};
  /// Maximum packets simultaneously in flight/queued in this run (pool
  /// high-water mark; a fresh thread's first run allocates exactly this many).
  std::uint64_t pool_high_water{0};

  // Robustness telemetry (middlebox interference + RFC 6824 fallback).
  /// Connection endpoints that fell back to plain single-path TCP (client
  /// and server count separately; a fully fallen-back run reports 2).
  std::uint64_t fallback_plain_tcp{0};
  /// Endpoints that switched to the §3.7 infinite mapping.
  std::uint64_t fallback_infinite_mapping{0};
  /// DSS checksum verification failures at the receivers.
  std::uint64_t checksum_failures{0};
  /// Distinct MP_FAIL signals sent (sticky retransmissions not counted).
  std::uint64_t mp_fail_events{0};
  /// MP_JOIN subflows refused (stripped handshake or post-fallback join).
  std::uint64_t join_refusals{0};
  /// MPTCP options removed in transit by middlebox emulation. Both
  /// middlebox counters count the endpoints' packets, not cross-traffic.
  std::uint64_t middlebox_options_stripped{0};
  /// Packets otherwise mangled by middleboxes (NAT seq rewrites, splits,
  /// coalesces, payload corruptions).
  std::uint64_t middlebox_packets_mangled{0};

  /// DSN-space invariant checks executed by the run's connections (0 unless
  /// the build was configured with -DMPR_AUDIT=ON). A completed MPTCP run
  /// with audit_checks == 0 under an audit build means the hooks were not
  /// exercised — itself a red flag in audit CI.
  std::uint64_t audit_checks{0};
};

}  // namespace mpr::sim
