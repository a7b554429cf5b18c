#include "check/audit.h"

#include <cstdio>
#include <sstream>

namespace mpr::check {
namespace {

std::atomic<std::uint64_t> g_violations{0};
std::atomic<std::uint64_t> g_checks{0};

thread_local AuditHandler t_handler;  // empty => default (throw AuditError)

void dispatch(AuditViolation&& v) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  if (t_handler) {
    t_handler(v);
    return;
  }
  throw AuditError{std::move(v)};
}

}  // namespace

std::string AuditViolation::to_string() const {
  std::ostringstream os;
  os << "audit violation [" << rule << "]";
  if (conn != 0) os << " conn=" << conn;
  if (subflow >= 0) os << " subflow=" << subflow;
  if (dsn != 0) os << " dsn=" << dsn;
  if (time_ns >= 0) os << " t=" << time_ns << "ns";
  if (!detail.empty()) os << ": " << detail;
  return os.str();
}

AuditError::AuditError(AuditViolation v)
    : std::runtime_error(v.to_string()), v_{std::move(v)} {}

AuditError synthetic_error(std::string rule, std::string detail) {
  return AuditError{AuditViolation{.rule = std::move(rule), .detail = std::move(detail)}};
}

void report(AuditViolation v) { dispatch(std::move(v)); }

void report_nothrow(AuditViolation v) noexcept {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  if (t_handler) {
    try {
      t_handler(v);
      return;
    } catch (...) {
      // fall through to stderr; a destructor context must not propagate
    }
  }
  std::fprintf(stderr, "%s\n", v.to_string().c_str());
}

std::uint64_t violations_total() {
  return g_violations.load(std::memory_order_relaxed);
}

std::uint64_t checks_total() { return g_checks.load(std::memory_order_relaxed); }

void bump_checks(std::uint64_t n) {
  g_checks.fetch_add(n, std::memory_order_relaxed);
}

ScopedAuditHandler::ScopedAuditHandler(AuditHandler h)
    : prev_{std::move(t_handler)} {
  t_handler = std::move(h);
}

ScopedAuditHandler::~ScopedAuditHandler() { t_handler = std::move(prev_); }

// ---------------------------------------------------------------------------

void TimeMonotonicAudit::on_event(std::int64_t when_ns, std::uint64_t seq) {
  bump_checks();
  if (when_ns < last_ns_) {
    report({.rule = "event.time_monotonic",
            .detail = "event at " + std::to_string(when_ns) +
                      "ns popped after " + std::to_string(last_ns_) + "ns",
            .time_ns = when_ns});
  } else if (when_ns == last_ns_ && seq <= last_seq_) {
    report({.rule = "event.seq_order",
            .detail = "event seq " + std::to_string(seq) + " popped after seq " +
                      std::to_string(last_seq_) + " at the same instant",
            .time_ns = when_ns});
  }
  last_ns_ = when_ns;
  last_seq_ = seq;
}

void PoolLedger::on_acquire(const void* p) {
  bump_checks();
  if (!out_.insert(p).second) {
    report({.rule = "pool.double_acquire",
            .detail = "packet handed out twice without an intervening release"});
  }
}

void PoolLedger::on_release(const void* p) {
  bump_checks();
  if (out_.erase(p) == 0) {
    report({.rule = "pool.double_release",
            .detail = "packet released while not outstanding"});
  }
}

void PoolLedger::on_teardown() noexcept {
  bump_checks();
  if (!out_.empty()) {
    report_nothrow(
        {.rule = "pool.leak",
         .detail = std::to_string(out_.size()) +
                   " packet(s) still outstanding at pool teardown"});
  }
}

// ---------------------------------------------------------------------------

void ConnAudit::on_send_chunk(std::uint64_t dsn, std::uint32_t len,
                              bool reinject, int subflow,
                              std::int64_t time_ns) {
  ++checks_;
  bump_checks();
  if (len == 0) {
    report({.rule = "dsn.empty_mapping",
            .detail = "zero-length DSS mapping",
            .conn = conn_,
            .subflow = subflow,
            .dsn = dsn,
            .time_ns = time_ns});
    return;
  }
  if (reinject) {
    // A reinjected mapping re-sends bytes that were already mapped once on
    // some subflow; it may never introduce new DSN space.
    if (dsn + len > mapped_end_) {
      report({.rule = "dsn.reinject_range",
              .detail = "reinjected mapping [" + std::to_string(dsn) + ", " +
                        std::to_string(dsn + len) + ") exceeds mapped end " +
                        std::to_string(mapped_end_),
              .conn = conn_,
              .subflow = subflow,
              .dsn = dsn,
              .time_ns = time_ns});
    }
    return;
  }
  // Fresh mappings must tile the DSN space contiguously: a gap would leave
  // bytes that can never be delivered, an overlap would map the same
  // connection-level byte live on two subflows at once.
  if (dsn != mapped_end_) {
    report({.rule = "dsn.send_gap",
            .detail = "fresh mapping starts at " + std::to_string(dsn) +
                      " but mapped space ends at " + std::to_string(mapped_end_),
            .conn = conn_,
            .subflow = subflow,
            .dsn = dsn,
            .time_ns = time_ns});
  }
  mapped_end_ = dsn + len;
}

void ConnAudit::on_data_ack(std::uint64_t data_ack, std::int64_t time_ns) {
  ++checks_;
  bump_checks();
  if (data_ack > mapped_end_) {
    report({.rule = "dsn.ack_range",
            .detail = "cumulative data-ack " + std::to_string(data_ack) +
                      " passes mapped end " + std::to_string(mapped_end_),
            .conn = conn_,
            .dsn = data_ack,
            .time_ns = time_ns});
  }
  if (data_ack < highest_ack_) {
    report({.rule = "dsn.ack_regression",
            .detail = "cumulative data-ack moved backwards: " +
                      std::to_string(highest_ack_) + " -> " +
                      std::to_string(data_ack),
            .conn = conn_,
            .dsn = data_ack,
            .time_ns = time_ns});
  }
  highest_ack_ = data_ack;
}

void ConnAudit::on_deliver(std::uint64_t dsn, std::uint32_t len,
                           std::int64_t time_ns) {
  ++checks_;
  bump_checks();
  if (dsn != deliver_next_) {
    const bool repeat = dsn < deliver_next_;
    report({.rule = "dsn.deliver",
            .detail = std::string(repeat ? "double delivery" : "delivery gap") +
                      ": got [" + std::to_string(dsn) + ", " +
                      std::to_string(dsn + len) + ") while expecting " +
                      std::to_string(deliver_next_),
            .conn = conn_,
            .dsn = dsn,
            .time_ns = time_ns});
  }
  deliver_next_ = dsn + len;
}

// ---------------------------------------------------------------------------

TransitionAudit::TransitionAudit(std::string rule,
                                 std::vector<std::string> state_names,
                                 std::initializer_list<std::pair<int, int>> allowed,
                                 int wildcard_to)
    : rule_{std::move(rule)},
      names_{std::move(state_names)},
      allowed_{allowed},
      wildcard_to_{wildcard_to} {}

std::string TransitionAudit::name(int s) const {
  if (s >= 0 && static_cast<std::size_t>(s) < names_.size()) return names_[s];
  return "state#" + std::to_string(s);
}

void TransitionAudit::on_transition(int from, int to, std::uint64_t conn,
                                    int subflow, std::int64_t time_ns) const {
  bump_checks();
  if (from == to) return;
  if (to == wildcard_to_) return;
  if (allowed_.count({from, to}) != 0) return;
  report({.rule = rule_,
          .detail = "illegal transition " + name(from) + " -> " + name(to),
          .conn = conn,
          .subflow = subflow,
          .time_ns = time_ns});
}

// ---------------------------------------------------------------------------

void cc_bounds(double cwnd_bytes, std::uint64_t ssthresh_bytes,
               std::uint32_t mss, std::uint64_t conn, int subflow,
               std::int64_t time_ns) {
  bump_checks();
  const double mssd = static_cast<double>(mss);
  const bool finite = cwnd_bytes == cwnd_bytes &&  // NaN check without <cmath>
                      cwnd_bytes <= 1e18;
  if (!finite || cwnd_bytes < mssd) {
    report({.rule = "cc.bounds",
            .detail = "cwnd " + std::to_string(cwnd_bytes) +
                      " bytes outside [1 MSS, finite) with mss " +
                      std::to_string(mss),
            .conn = conn,
            .subflow = subflow,
            .time_ns = time_ns});
  }
  if (ssthresh_bytes < 2ull * mss) {
    report({.rule = "cc.bounds",
            .detail = "ssthresh " + std::to_string(ssthresh_bytes) +
                      " bytes below the 2-MSS floor with mss " +
                      std::to_string(mss),
            .conn = conn,
            .subflow = subflow,
            .time_ns = time_ns});
  }
}

void cc_aggregate_increase(double increase_bytes, double reno_increase_bytes,
                           double cap_factor, std::uint64_t conn, int subflow,
                           std::int64_t time_ns) {
  bump_checks();
  // Absolute slack absorbs double rounding; relative slack scales with the
  // Reno reference so large-MSS configurations do not false-positive.
  const double eps = 1e-3 + reno_increase_bytes * 1e-9;
  if (increase_bytes > cap_factor * reno_increase_bytes + eps ||
      increase_bytes < -0.5 * reno_increase_bytes - eps) {
    report({.rule = "cc.aggregate_increase",
            .detail = "CA increase " + std::to_string(increase_bytes) +
                      " bytes outside [-0.5, " + std::to_string(cap_factor) +
                      "] x Reno reference " +
                      std::to_string(reno_increase_bytes),
            .conn = conn,
            .subflow = subflow,
            .time_ns = time_ns});
  }
}

void cc_vegas_adjust(double delta_bytes, std::uint32_t mss, double cwnd_bytes,
                     std::uint64_t conn, int subflow, std::int64_t time_ns) {
  bump_checks();
  const double mssd = static_cast<double>(mss);
  const double eps = 1e-3 + mssd * 1e-9;
  const double mag = delta_bytes < 0 ? -delta_bytes : delta_bytes;
  if (mag > mssd + eps) {
    report({.rule = "cc.vegas_adjust",
            .detail = "delay-based CA step of " + std::to_string(delta_bytes) +
                      " bytes exceeds one MSS (" + std::to_string(mss) + ")",
            .conn = conn,
            .subflow = subflow,
            .time_ns = time_ns});
  }
  if (!(cwnd_bytes == cwnd_bytes) || cwnd_bytes < mssd - eps) {
    report({.rule = "cc.vegas_adjust",
            .detail = "cwnd " + std::to_string(cwnd_bytes) +
                      " bytes below the 1-MSS floor after a Vegas step",
            .conn = conn,
            .subflow = subflow,
            .time_ns = time_ns});
  }
}

void scheduler_weights_valid(const std::vector<double>& weights,
                             std::uint64_t conn) {
  bump_checks();
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i];
    if (!(w == w) || w <= 0.0 || w > 1e18) {
      report({.rule = "sched.weights",
              .detail = "scheduler weight[" + std::to_string(i) + "] = " +
                        std::to_string(w) + " is not a finite positive share",
              .conn = conn,
              .subflow = static_cast<int>(i)});
    }
  }
}

void scheduler_pump_order(const std::vector<SchedEntry>& order,
                          bool partition_by_space, bool order_by_srtt,
                          std::uint64_t conn, std::int64_t time_ns) {
  bump_checks();
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (partition_by_space && order[i].cwnd_space && !order[i - 1].cwnd_space) {
      report({.rule = "sched.starvation",
              .detail = "subflow with window space ordered behind a "
                        "window-blocked one at position " + std::to_string(i),
              .conn = conn,
              .subflow = static_cast<int>(i),
              .time_ns = time_ns});
    }
    // Within the same window-space class (or globally for minrtt/redundant),
    // the strategy's own key must be respected.
    const bool same_class =
        !partition_by_space || order[i].cwnd_space == order[i - 1].cwnd_space;
    if (order_by_srtt && same_class && order[i].srtt_ns < order[i - 1].srtt_ns) {
      report({.rule = "sched.order",
              .detail = "srtt " + std::to_string(order[i].srtt_ns) +
                        "ns ordered after " + std::to_string(order[i - 1].srtt_ns) +
                        "ns at position " + std::to_string(i),
              .conn = conn,
              .subflow = static_cast<int>(i),
              .time_ns = time_ns});
    }
    if (!order_by_srtt && same_class && order[i].deficit < order[i - 1].deficit) {
      report({.rule = "sched.order",
              .detail = "deficit " + std::to_string(order[i].deficit) +
                        " ordered after " + std::to_string(order[i - 1].deficit) +
                        " at position " + std::to_string(i),
              .conn = conn,
              .subflow = static_cast<int>(i),
              .time_ns = time_ns});
    }
  }
}

void redundant_duplicate(int origin, int target, std::uint64_t conn,
                         std::uint64_t dsn, std::int64_t time_ns) {
  bump_checks();
  if (origin == target) {
    report({.rule = "sched.redundant_origin",
            .detail = "duplicate dispatched back onto its origin subflow " +
                      std::to_string(origin),
            .conn = conn,
            .subflow = target,
            .dsn = dsn,
            .time_ns = time_ns});
  }
}

// ---------------------------------------------------------------------------

ConnAudit& Auditor::make_conn(std::uint64_t conn) {
  conns_.emplace_back();
  conns_.back().set_conn(conn);
  return conns_.back();
}

std::uint64_t Auditor::checks() const {
  std::uint64_t total = 0;
  for (const ConnAudit& c : conns_) total += c.checks();
  return total;
}

}  // namespace mpr::check
