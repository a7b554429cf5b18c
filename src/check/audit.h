// Runtime invariant auditor.
//
// The checker classes in this header are always compiled (and unit-tested
// directly); only the *hooks* in the simulator's hot paths are guarded by
// the MPR_AUDIT macro, so an MPR_AUDIT=OFF build pays nothing. Configure
// with -DMPR_AUDIT=ON to arm the hooks; a violated invariant raises a
// structured AuditViolation carrying connection/subflow/DSN context, which
// by default is thrown as check::AuditError and fails the run.
//
// The parallel campaign runner gives each worker thread its own Simulation,
// so the violation handler is thread_local: a test (or a worker) can install
// a capturing handler without racing other workers. Aggregate counters are
// process-wide atomics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#ifndef MPR_AUDIT
#define MPR_AUDIT 0
#endif

namespace mpr::check {

/// One violated invariant, with enough context to locate the bug.
struct AuditViolation {
  std::string rule;    ///< e.g. "dsn.deliver", "pool.double_release"
  std::string detail;  ///< human-readable specifics
  std::uint64_t conn{0};
  int subflow{-1};
  std::uint64_t dsn{0};
  std::int64_t time_ns{-1};

  [[nodiscard]] std::string to_string() const;
};

/// Thrown by the default violation handler; fails the run.
class AuditError : public std::runtime_error {
 public:
  explicit AuditError(AuditViolation v);
  [[nodiscard]] const AuditViolation& violation() const { return v_; }

 private:
  AuditViolation v_;
};

using AuditHandler = std::function<void(const AuditViolation&)>;

/// Builds the AuditError a real violation of `rule` would raise, without
/// touching the process-wide counters or the thread's handler. Fault
/// injection for quarantine drills: campaign tests throw this from a
/// per-user hook to prove a run that audits out is recorded and skipped,
/// not fatal to the sweep.
[[nodiscard]] AuditError synthetic_error(std::string rule, std::string detail);

/// Report a violation: bumps the process-wide counter, then invokes the
/// current thread's handler (default: throw AuditError).
void report(AuditViolation v);

/// Like report(), but never propagates an exception — for destructor
/// contexts (e.g. pool leak detection at teardown). With no custom handler
/// installed the violation is printed to stderr instead of thrown.
void report_nothrow(AuditViolation v) noexcept;

/// Process-wide totals across all threads since process start.
[[nodiscard]] std::uint64_t violations_total();
[[nodiscard]] std::uint64_t checks_total();
void bump_checks(std::uint64_t n = 1);

/// RAII: installs a violation handler for the current thread, restores the
/// previous one (or the throwing default) on destruction.
class ScopedAuditHandler {
 public:
  explicit ScopedAuditHandler(AuditHandler h);
  ~ScopedAuditHandler();
  ScopedAuditHandler(const ScopedAuditHandler&) = delete;
  ScopedAuditHandler& operator=(const ScopedAuditHandler&) = delete;

 private:
  AuditHandler prev_;
};

// ---------------------------------------------------------------------------
// Checkers
// ---------------------------------------------------------------------------

/// Event order: every popped event's (when, seq) must be above the
/// previously popped one's. Time may never run backwards
/// ("event.time_monotonic"), and at one instant seqs must rise
/// ("event.seq_order"): an event filed under a reserved seq after the queue
/// has run past that seq surfaces here.
class TimeMonotonicAudit {
 public:
  void on_event(std::int64_t when_ns, std::uint64_t seq);

 private:
  std::int64_t last_ns_{std::numeric_limits<std::int64_t>::min()};
  std::uint64_t last_seq_{0};  // unread until an event shares last_ns_
};

/// Packet-pool ledger: every pooled packet is outstanding at most once.
/// Catches double-release and leak-at-teardown, which ASan cannot see
/// because pooled memory is recycled, never freed.
class PoolLedger {
 public:
  void on_acquire(const void* p);
  void on_release(const void* p);
  /// Leak check at pool teardown; reports via report_nothrow() so it is
  /// safe to call from a destructor.
  void on_teardown() noexcept;
  [[nodiscard]] std::size_t outstanding() const { return out_.size(); }

 private:
  std::unordered_set<const void*> out_;
};

/// DSN-space auditor for one MPTCP connection (sender + receiver side):
///  - fresh DSS mappings extend the mapped space contiguously (no gap, no
///    overlap between live mappings on different subflows),
///  - reinjected mappings stay inside already-mapped space,
///  - cumulative data-acks never pass the mapped edge,
///  - connection-level delivery is contiguous and exactly-once (a repeat
///    or a skip of a DSN range is a violation, so a reinjection that
///    double-delivers is caught at the receiver).
class ConnAudit {
 public:
  void set_conn(std::uint64_t conn) { conn_ = conn; }

  void on_send_chunk(std::uint64_t dsn, std::uint32_t len, bool reinject,
                     int subflow, std::int64_t time_ns);
  void on_data_ack(std::uint64_t data_ack, std::int64_t time_ns);
  void on_deliver(std::uint64_t dsn, std::uint32_t len, std::int64_t time_ns);

  [[nodiscard]] std::uint64_t mapped_end() const { return mapped_end_; }
  [[nodiscard]] std::uint64_t checks() const { return checks_; }

 private:
  std::uint64_t conn_{0};
  std::uint64_t mapped_end_{0};    // sender: end of contiguously mapped DSN space
  std::uint64_t highest_ack_{0};   // sender: highest cumulative data-ack seen
  std::uint64_t deliver_next_{0};  // receiver: next DSN owed to the application
  std::uint64_t checks_{0};
};

/// Validates state-machine transitions against an allow-list. The table is
/// immutable after construction, so one `static const` instance can be
/// shared by every endpoint on every worker thread.
class TransitionAudit {
 public:
  TransitionAudit(std::string rule, std::vector<std::string> state_names,
                  std::initializer_list<std::pair<int, int>> allowed,
                  int wildcard_to = -1);

  /// Checks from->to; self-transitions are always allowed.
  void on_transition(int from, int to, std::uint64_t conn, int subflow,
                     std::int64_t time_ns) const;

 private:
  [[nodiscard]] std::string name(int s) const;

  std::string rule_;
  std::vector<std::string> names_;
  std::set<std::pair<int, int>> allowed_;
  int wildcard_to_;
};

/// Congestion-controller sanity: cwnd within [1 MSS, +inf) and finite,
/// ssthresh >= 2 MSS (RFC 5681 floors, enforced throughout src/tcp).
void cc_bounds(double cwnd_bytes, std::uint64_t ssthresh_bytes,
               std::uint32_t mss, std::uint64_t conn = 0, int subflow = -1,
               std::int64_t time_ns = -1);

/// RFC 6356 §4 aggregate-increase invariant: a coupled controller's
/// congestion-avoidance increase for one ack must not exceed `cap_factor`
/// times what a single uncoupled New Reno flow would add for the same acked
/// bytes (cap_factor 1.0 for LIA/Reno; OLIA's rate-balancing term allows up
/// to 1.5), and must not decrease faster than OLIA's -0.5/w clamp.
void cc_aggregate_increase(double increase_bytes, double reno_increase_bytes,
                           double cap_factor, std::uint64_t conn = 0,
                           int subflow = -1, std::int64_t time_ns = -1);

/// Vegas adjustment invariant: a delay-based congestion-avoidance step moves
/// cwnd by at most one MSS per RTT epoch in either direction, and the
/// resulting cwnd respects the 1-MSS floor.
void cc_vegas_adjust(double delta_bytes, std::uint32_t mss, double cwnd_bytes,
                     std::uint64_t conn = 0, int subflow = -1,
                     std::int64_t time_ns = -1);

/// Weighted-scheduler configuration: every share must be finite and > 0
/// (the runtime treats bad entries as 1.0; the auditor flags them so a
/// misconfigured scenario cannot silently degrade to round-robin).
void scheduler_weights_valid(const std::vector<double>& weights,
                             std::uint64_t conn = 0);

/// One subflow's position in a pumping order, as plain data so check/ stays
/// independent of core/.
struct SchedEntry {
  bool cwnd_space{false};    ///< window admits more data right now
  std::int64_t srtt_ns{0};   ///< smoothed RTT
  double deficit{0.0};       ///< scheduled bytes / configured weight
};

/// Validates a scheduler's pumping order after PacketScheduler::order():
/// with `partition_by_space`, no window-blocked subflow may precede one with
/// space ("sched.starvation" — the round-robin stall bug); with
/// `order_by_srtt`, smoothed RTTs must be non-decreasing ("sched.order").
void scheduler_pump_order(const std::vector<SchedEntry>& order,
                          bool partition_by_space, bool order_by_srtt,
                          std::uint64_t conn = 0, std::int64_t time_ns = -1);

/// Redundant-scheduler dispatch: a duplicate must travel on a different
/// subflow than the original ("sched.redundant_origin" — same-subflow
/// duplication would just burn the origin's cwnd without path diversity).
void redundant_duplicate(int origin, int target, std::uint64_t conn = 0,
                         std::uint64_t dsn = 0, std::int64_t time_ns = -1);

/// Per-Simulation audit service (Simulation::service<check::Auditor>()):
/// hands out one ConnAudit per MPTCP connection and aggregates their check
/// counts for SimStats.
class Auditor {
 public:
  ConnAudit& make_conn(std::uint64_t conn);
  [[nodiscard]] std::uint64_t checks() const;

 private:
  std::deque<ConnAudit> conns_;  // deque: stable addresses for Connection hooks
};

}  // namespace mpr::check
