// MPTCP packet scheduling policy.
//
// The scheduler decides which subflow new connection-level data is offered
// to first. Scheduling is expressed as a pumping order: subflows earlier in
// the order pull chunks from the connection first. PacketScheduler is one
// value type: the strategy kind plus its sanitized per-subflow weights, held
// by value by the connection. Four strategies:
//
//  minrtt     — lowest smoothed RTT first (the Linux default the paper
//               measured).
//  roundrobin — deficit round-robin: the subflow with the fewest scheduled
//               data-level bytes pulls first, spreading data evenly
//               regardless of RTT. Subflows without congestion-window space
//               are moved to the back of the order so a stalled path cannot
//               soak up fresh chunks it can never send (it would strand
//               them until RTO reinjection). It is the weighted order with
//               every weight 1 and no share enforcement.
//  weighted   — deficit round-robin over bytes/weight: per-subflow shares
//               from MptcpConfig::scheduler_weights (by subflow id; missing
//               or non-positive entries count as 1.0). Same cwnd-space
//               partition as roundrobin.
//  redundant  — lowest-RTT pumping order, but every fresh chunk handed to
//               one subflow is also duplicated onto another established
//               subflow ("Is two greater than one?"-style redundant
//               dispatch). First arrival wins at the receiver's reorder
//               buffer; the losing copy is absorbed as a duplicate, so DSN
//               exactly-once delivery holds. Duplicates are accounted as
//               reinjections in the DSN audit (they never map new space).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mpr::core {

class MptcpSubflow;

enum class SchedulerKind { kMinRtt, kRoundRobin, kWeighted, kRedundant };

[[nodiscard]] inline std::string to_string(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kMinRtt: return "minrtt";
    case SchedulerKind::kRoundRobin: return "roundrobin";
    case SchedulerKind::kWeighted: return "weighted";
    case SchedulerKind::kRedundant: return "redundant";
  }
  return "?";
}

/// Scenario/CLI name -> kind ("rr" and "roundrobin" both accepted).
[[nodiscard]] std::optional<SchedulerKind> scheduler_from_string(const std::string& s);

class PacketScheduler {
 public:
  /// `weights` are per-subflow-id shares, kept only for kWeighted (ignored
  /// by the other strategies). Entries that are not finite and positive
  /// count as 1.0.
  explicit PacketScheduler(SchedulerKind kind, const std::vector<double>& weights = {});

  [[nodiscard]] SchedulerKind kind() const { return kind_; }
  /// Reorders `subflows` into pumping order (most preferred first). Stable:
  /// subflows that compare equal keep their relative order.
  void order(std::span<MptcpSubflow*> subflows) const;
  /// Redundant dispatch: fresh chunks handed to one subflow are also
  /// duplicated onto another established subflow by the connection.
  [[nodiscard]] bool redundant() const { return kind_ == SchedulerKind::kRedundant; }
  /// Share enforcement: a subflow ahead of its weighted byte share declines
  /// fresh data while another usable subflow lags behind its share (the
  /// pumping order alone cannot cap a path — every subflow would still fill
  /// its congestion window).
  [[nodiscard]] bool enforces_shares() const { return kind_ == SchedulerKind::kWeighted; }
  /// The deficit weight applied to `subflow_id` (1.0 unless the scheduler
  /// is weighted and a share was configured for that id).
  [[nodiscard]] double weight(std::uint8_t subflow_id) const {
    return subflow_id < weights_.size() ? weights_[subflow_id] : 1.0;
  }

 private:
  SchedulerKind kind_;
  std::vector<double> weights_;
};

}  // namespace mpr::core
