// MPTCP connection.
//
// Owns the subflows, the shared congestion controller, the packet scheduler,
// the data-level send state and the connection-level receive reorder buffer.
// Implements the establishment behaviour the paper studies:
//
//  * delayed SYN (standard, RFC 6824): the initial subflow is established
//    with MP_CAPABLE over the default path (WiFi); additional subflows join
//    with MP_JOIN only after the first subflow is established. The server
//    advertises its second interface with ADD_ADDR, and the client (being
//    behind a NAT) initiates the joins (§2.2.1).
//  * simultaneous SYN (the paper's §4.1.2 modification): the client fires
//    the MP_CAPABLE SYN and all MP_JOIN SYNs at the same instant.
//
// Also implements optional sender-side penalization of reorder-inducing
// subflows (the Linux mechanism the paper removes, §3.1) and opportunistic
// reinjection of data stranded on a repeatedly timed-out subflow.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "check/audit.h"
#include "core/coupled_cc.h"
#include "core/reorder_buffer.h"
#include "core/scheduler.h"
#include "core/subflow.h"
#include "net/host.h"
#include "sim/flat_vec.h"
#include "sim/timer.h"
#include "tcp/seg_ring.h"

namespace mpr::core {

struct MptcpConfig {
  tcp::TcpConfig subflow;
  CcKind cc{CcKind::kCoupled};
  SchedulerKind scheduler{SchedulerKind::kMinRtt};
  /// Per-subflow shares for SchedulerKind::kWeighted, indexed by subflow id
  /// (creation order: 0 is the initial/WiFi subflow). Missing or
  /// non-positive entries count as 1.0; ignored by the other strategies.
  std::vector<double> scheduler_weights;
  /// Fire MP_JOIN SYNs together with the initial SYN (§4.1.2). The default
  /// (delayed) mode mirrors the kernel path manager the paper measured:
  /// joins start only once the connection is confirmed by data-level
  /// activity on the initial subflow (first DSS-carrying segment received),
  /// which postpones the second path by roughly one request/response
  /// exchange — the cost Fig 8 quantifies.
  bool simultaneous_syns{false};
  /// Linux receive-buffer penalization; the paper removes it (§3.1).
  bool penalization{false};
  /// Client interfaces to join in backup mode (RFC 6824 B bit): their
  /// subflows carry data only while no regular subflow is healthy —
  /// the "backup mode" of Paasch et al. that trades throughput for the
  /// second radio's energy (§6/§7 of the paper).
  std::vector<net::IpAddr> backup_local_addrs;
  /// Attach the RFC 6824 §3.3 DSS checksum to every mapping and verify it at
  /// the receiver. Off by default: checksums cost 2 option bytes per data
  /// segment and only matter when a middlebox rewrites payload.
  bool dss_checksum{false};
  /// On a checksum failure, tear the whole connection down instead of the
  /// RFC 6824 §3.6 recovery (close the subflow with MP_FAIL+RST, or fall
  /// back to an infinite mapping on the last subflow).
  bool checksum_teardown{false};
  /// RFC 6824 §3.7: when the peer's MP_CAPABLE is stripped by a middlebox,
  /// continue as plain single-path TCP. When disabled the connection fails
  /// instead (surfaced through on_error).
  bool allow_tcp_fallback{true};
};

class MptcpConnection {
 public:
  enum class Role { kClient, kServer };

  /// RFC 6824 fallback state. kPlainTcp: the handshake (or an option-
  /// stripping middlebox mid-stream) demoted the connection to single-path
  /// TCP — no MPTCP option is sent or honoured any more. kInfiniteMapping:
  /// a checksum failure on the last subflow switched the data stream to one
  /// unbounded mapping (§3.7); the connection survives but can never add
  /// subflows again.
  enum class FallbackKind { kNone, kPlainTcp, kInfiniteMapping };

  /// Robustness telemetry, aggregated into SimStats by the harness.
  struct FallbackCounters {
    bool plain_tcp{false};
    bool infinite_mapping{false};
    std::uint64_t checksum_failures{0};
    std::uint64_t mp_fail_sent{0};
    std::uint64_t mp_fail_received{0};
    std::uint64_t join_refusals{0};
    std::uint64_t unmapped_segments{0};
    std::uint64_t subflow_resets_received{0};
  };

  /// Client-side connection. `local_addrs[0]` is the default path (WiFi in
  /// the paper); the rest join per the configured SYN mode.
  MptcpConnection(net::Host& host, MptcpConfig config, std::vector<net::IpAddr> local_addrs,
                  net::SocketAddr server, std::uint64_t local_key);

  /// Server-side connection, built from an MP_CAPABLE SYN. `advertise`
  /// lists extra server addresses to announce via ADD_ADDR (empty for the
  /// 2-path experiments).
  MptcpConnection(net::Host& host, MptcpConfig config, const net::Packet& capable_syn,
                  std::vector<net::IpAddr> advertise, std::uint64_t local_key);

  MptcpConnection(const MptcpConnection&) = delete;
  MptcpConnection& operator=(const MptcpConnection&) = delete;

  // --- Application interface ---------------------------------------------
  /// Client only: establish the connection (sends the first SYN now).
  void connect();
  /// Queue `bytes` of application data for transmission.
  void write(std::uint64_t bytes);
  /// Mark the end of the data stream; DATA_FIN rides on the last chunk and
  /// subflows are closed once everything is acknowledged.
  void shutdown_data();

  std::function<void(std::uint64_t dsn, std::uint32_t len)> on_data;
  std::function<void()> on_established;
  std::function<void()> on_data_fin;
  /// The connection failed: every subflow stayed dead for 90 s
  /// (kAllPathsDeadTimeout), or the initial handshake gave up. Subflows
  /// are aborted before this fires; no further progress will happen.
  std::function<void()> on_error;

  /// Mobility / path-management API (extensions; §6 of the paper).
  /// Re-prioritizes every subflow on `local_addr` and signals the peer
  /// with MP_PRIO.
  void set_subflow_backup(net::IpAddr local_addr, bool backup);
  /// The interface went away: kills its subflows, reinjects their stranded
  /// data onto the survivors, and withdraws the address with REMOVE_ADDR.
  void remove_local_addr(net::IpAddr addr);
  /// The interface came back: re-adds the address and (re)joins every known
  /// remote address from it, clearing any pending withdrawal and join-retry
  /// backoff for the address.
  void add_local_addr(net::IpAddr addr);
  /// Switches the dispatch strategy mid-connection (scenario `sched`
  /// events). Pending redundant duplicates are discarded when leaving the
  /// redundant strategy; the originals remain outstanding on their subflows.
  void set_scheduler(SchedulerKind kind, std::vector<double> weights = {});

  // --- Introspection -------------------------------------------------------
  [[nodiscard]] bool established() const { return established_; }
  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] Role role() const { return role_; }
  [[nodiscard]] std::uint64_t token() const;
  [[nodiscard]] sim::TimePoint first_syn_time() const { return first_syn_time_; }
  [[nodiscard]] const ReorderBuffer& rx() const { return rx_; }
  [[nodiscard]] std::vector<MptcpSubflow*> subflows() const;
  [[nodiscard]] std::size_t subflow_count() const { return subflows_.size(); }
  [[nodiscard]] std::uint64_t penalizations() const { return penalizations_; }
  [[nodiscard]] std::uint64_t reinjected_chunks() const { return reinjected_chunks_; }
  [[nodiscard]] std::uint64_t redundant_chunks() const { return redundant_chunks_; }
  [[nodiscard]] const MptcpConfig& config() const { return config_; }
  [[nodiscard]] FallbackKind fallback() const { return fallback_; }
  [[nodiscard]] bool plain_fallback() const { return fallback_ == FallbackKind::kPlainTcp; }
  [[nodiscard]] bool infinite_mapping() const {
    return fallback_ == FallbackKind::kInfiniteMapping;
  }
  [[nodiscard]] const FallbackCounters& fallback_counters() const { return fallback_counters_; }

  // --- Module-internal API (called by MptcpSubflow and MptcpServer) --------
  std::optional<tcp::TcpEndpoint::Chunk> next_chunk_for(MptcpSubflow& sf,
                                                        std::uint32_t max_len);
  void on_subflow_data(MptcpSubflow& sf, std::uint64_t dsn, std::uint32_t len, bool data_fin);
  /// DATA_FIN carried without payload (on a bare ACK). `fin_dsn` is the
  /// data-level sequence just past the end of the stream.
  void on_data_fin_signal(std::uint64_t fin_dsn);
  void on_data_ack(std::uint64_t data_ack);
  void on_subflow_established(MptcpSubflow& sf);
  void on_subflow_rto(MptcpSubflow& sf);
  void on_subflow_connect_failed(MptcpSubflow& sf);
  void on_remote_add_addr(net::IpAddr addr);
  void on_remote_remove_addr(net::IpAddr addr, std::uint32_t generation);
  void on_priority_change() { pump_all(); }
  void note_peer_window(std::uint64_t wnd) { peer_window_ = wnd; }
  void decorate_extra(MptcpSubflow& sf, net::Packet& p);
  [[nodiscard]] std::uint64_t data_rcv_nxt() const { return rx_.rcv_nxt(); }
  [[nodiscard]] std::uint64_t conn_window() const { return rx_.window(); }
  [[nodiscard]] std::uint64_t local_key() const { return local_key_; }
  [[nodiscard]] std::uint64_t remote_key() const { return remote_key_; }
  void set_remote_key(std::uint64_t k) { remote_key_ = k; }
  /// Server only: attach an MP_JOIN subflow from an incoming SYN.
  void accept_join(const net::Packet& join_syn);
  // Fallback / middlebox-interference paths (RFC 6824 §3.6–§3.8).
  /// The initial subflow completed its handshake without the peer echoing
  /// MP_CAPABLE (option stripped in transit).
  void on_capable_fallback(MptcpSubflow& sf);
  /// A join subflow was refused (MP_JOIN stripped, or arrived after plain
  /// fallback); the subflow has already reset itself.
  void on_join_refused(MptcpSubflow& sf);
  /// The peer sent RST on a subflow.
  void on_subflow_reset(MptcpSubflow& sf, bool during_handshake);
  /// Plain-TCP fallback only: subflow-level cumulative ack progress stands
  /// in for the DSS data-ack.
  void on_fallback_ack(std::uint64_t acked);
  /// A received mapping failed its DSS checksum (§3.3 / §3.6).
  void on_checksum_failure(MptcpSubflow& sf);
  /// The peer signalled MP_FAIL for `dsn`.
  void on_remote_mp_fail(MptcpSubflow& sf, std::uint64_t dsn, bool subflow_closed);
  /// Payload arrived that no DSS mapping covers (stripped or over-coalesced).
  void on_unmapped_payload(MptcpSubflow& sf, std::uint64_t offset, std::uint32_t len);
  /// An established peer sent a data-less, DSS-less, non-SYN/RST packet —
  /// possibly the far side of a mid-handshake fallback.
  void on_plain_packet(MptcpSubflow& sf);
  void note_dss_seen() { dss_seen_ = true; }

 private:
  /// Receive-side delivery hook and DSN auditor, shared by both constructors.
  void init_rx_and_audit();
  MptcpSubflow& create_subflow(net::SocketAddr local, net::SocketAddr remote,
                               MptcpSubflow::HandshakeKind kind, bool backup = false);
  /// Client: opens an MP_JOIN subflow from `local` to `remote`.
  void open_join(net::IpAddr local, net::IpAddr remote);
  /// A subflow on this address pair that is not closed.
  [[nodiscard]] bool has_live_subflow(net::IpAddr local, net::IpAddr remote) const;
  [[nodiscard]] bool is_backup_addr(net::IpAddr addr) const;
  [[nodiscard]] bool any_healthy_regular_subflow() const;
  void maybe_start_joins();
  void pump_all();
  /// Hands `sf` the first entry of the reinjection queue (or, with
  /// `duplicate`, of the redundant duplicate queue) it may carry, cut to
  /// `max_len`, dropping data-acked entries on the way.
  std::optional<tcp::TcpEndpoint::Chunk> take_queued(bool duplicate, const MptcpSubflow& sf,
                                                     std::uint32_t max_len);
  /// Maps the next `max_len` bytes of application data, within the peer's
  /// window, for `sf`.
  std::optional<tcp::TcpEndpoint::Chunk> grant_fresh(const MptcpSubflow& sf,
                                                     std::uint32_t max_len);
  /// Queues everything sent from `dsn` on for reinjection; false when
  /// nothing was sent past it.
  bool requeue_from(std::uint64_t dsn, std::uint8_t origin);
  /// Queues every not-yet-data-acked mapping of `sf` for reinjection.
  void strand(MptcpSubflow& sf);
  void maybe_penalize();
  void maybe_close_subflows();
  // Failure-path hardening.
  [[nodiscard]] bool any_viable_subflow() const;
  [[nodiscard]] bool closing() const { return subflows_closed_ || data_fin_delivered_; }
  void note_paths_dead();
  void on_dead_deadline();
  void fail_connection();
  void schedule_join_retry(net::IpAddr local, net::IpAddr remote);
  void retry_join(net::IpAddr local, net::IpAddr remote);
  void clear_join_retry(net::IpAddr local, net::IpAddr remote);
  /// Cancels the pending join retries from `local`, or every one.
  void cancel_join_retries(std::optional<net::IpAddr> local = std::nullopt);
  /// Demote to plain single-path TCP on `sf`, resetting every other subflow.
  void enter_plain_fallback(MptcpSubflow& sf);
  [[nodiscard]] MptcpSubflow* other_live_subflow(const MptcpSubflow& sf) const;
  /// Close `sf` with MP_FAIL+RST and reinject its stranded data elsewhere.
  void close_subflow_with_mp_fail(MptcpSubflow& sf, std::uint64_t fail_dsn);
  /// Single funnel for fallback-state changes; under MPR_AUDIT the
  /// transition is validated (fallback is one-way, kNone -> one kind).
  void set_fallback(FallbackKind next);
  [[nodiscard]] static std::uint64_t join_key(net::IpAddr local, net::IpAddr remote) {
    return (static_cast<std::uint64_t>(local.value) << 32) | remote.value;
  }

  net::Host& host_;
  MptcpConfig config_;
  Role role_;
  std::vector<net::IpAddr> local_addrs_;
  net::SocketAddr server_primary_;
  std::vector<net::IpAddr> known_remote_addrs_;
  std::vector<net::IpAddr> advertise_addrs_;  // server: extra NICs to announce
  bool add_addr_pending_{false};
  std::optional<net::RemoveAddrOption> remove_addr_pending_;
  std::uint32_t remove_addr_generation_{0};  // sender side
  // Ordered: iterated when replaying withdrawals, and iteration order feeds
  // REMOVE_ADDR emission order (mpr-lint unordered-iter). Control-plane only
  // (a handful of addresses, touched on path changes, never per packet).
  // mpr-lint: allow(ordered-container)
  std::map<net::IpAddr, std::uint32_t> remove_addr_seen_;  // receiver side

  std::uint64_t local_key_{0};
  std::uint64_t remote_key_{0};

  std::unique_ptr<tcp::CongestionControl> cc_;
  PacketScheduler scheduler_;
  std::vector<std::unique_ptr<MptcpSubflow>> subflows_;

  // Receive side.
  ReorderBuffer rx_;
  std::optional<std::uint64_t> data_fin_dsn_;
  bool data_fin_delivered_{false};

  // Send side.
  std::uint64_t data_snd_nxt_{0};
  std::uint64_t data_una_{0};
  std::uint64_t app_pending_{0};
  bool data_fin_requested_{false};
  bool data_fin_sent_{false};
  std::uint64_t peer_window_{8 * 1024 * 1024};
  struct Reinject {
    std::uint64_t dsn{0};
    std::uint32_t len{0};
    std::uint8_t origin{0};
  };
  /// Reinject::origin sentinel: the chunk may go out on any subflow (used
  /// when the peer's MP_FAIL does not identify a dead subflow to avoid).
  static constexpr std::uint8_t kReinjectAnyOrigin = 0xff;
  sim::FlatDeque<Reinject> reinject_queue_;
  /// dsn -> id of the subflow that most recently stranded it. A map (not a
  /// set) so that when the reinjection *target* dies too, the chunk is
  /// queued again instead of being dropped by the dedup check — a cascading
  /// failure must not strand data permanently. A SegRing (tcp/seg_ring.h):
  /// sweeps on data-ack progress visit DSNs deterministically, and the
  /// on_data_ack trim advances the head instead of freeing nodes (the
  /// hotpath audit bans allocation in that function's emitted code).
  tcp::SegRing<std::uint8_t> reinjected_dsns_;
  std::uint64_t reinjected_chunks_{0};
  /// Redundant-scheduler duplicates awaiting a second subflow: every fresh
  /// chunk handed out while the redundant strategy is active is queued here
  /// (origin = the subflow that got the original) and consumed by the first
  /// *other* subflow to pump. Duplicates are opportunistic: entries the peer
  /// data-acks first are dropped, and an entry nobody else can carry simply
  /// ages out once acked — the original copy guarantees delivery.
  sim::FlatDeque<Reinject> dup_queue_;
  std::uint64_t redundant_chunks_{0};

  bool established_{false};
  bool joins_started_{false};
  bool subflows_closed_{false};
  sim::TimePoint first_syn_time_;

  // Failure-path state.
  bool failed_{false};
  std::optional<sim::TimePoint> dead_since_;
  sim::Timer dead_timer_{host_.sim()};
  struct JoinRetryState {
    explicit JoinRetryState(sim::Simulation& sim) : timer{sim} {}
    int attempts{0};
    sim::Timer timer;
  };
  // Ordered: iterated on address removal and teardown, where the order of
  // cancelled timers must be deterministic (mpr-lint unordered-iter).
  // Control-plane only: one entry per attempted join.
  // mpr-lint: allow(ordered-container)
  std::map<std::uint64_t, JoinRetryState> join_retries_;

  // Fallback state (RFC 6824 §3.6–§3.8).
  FallbackKind fallback_{FallbackKind::kNone};
  FallbackCounters fallback_counters_;
  /// Any DSS option seen from the peer: once true, a DSS-less packet is a
  /// plain delayed ack, not evidence of a mid-stream option stripper.
  bool dss_seen_{false};
  /// MP_FAIL to attach to outgoing packets; sticky under infinite-mapping
  /// fallback until receive-side data progresses past the failed DSN.
  std::optional<std::uint64_t> pending_mp_fail_;
  bool pending_mp_fail_rst_{false};
  /// DSNs whose MP_FAIL we already acted on (the option is sticky at the
  /// sender, so it arrives many times).
  std::unordered_set<std::uint64_t> mp_fail_seen_;

  std::uint64_t penalizations_{0};
  bool pumping_all_{false};
  /// pump_all's established subflows in pumping order, refilled per call.
  sim::FlatVec<MptcpSubflow*> pump_order_;

#if MPR_AUDIT
  /// DSN-space auditor; owned by the Simulation's check::Auditor service so
  /// its check counts outlive the connection into SimStats.
  check::ConnAudit* audit_{nullptr};
#endif
};

}  // namespace mpr::core
