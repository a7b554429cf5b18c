// MPTCP congestion controllers (paper §2.2.2).
//
// All four share the loss response (tcp::CongestionControl's) and the
// first three share slow start (tcp::RenoFamilyCc's); they differ in the
// congestion-avoidance increase:
//
//  reno    — uncoupled New Reno on every subflow (tcp::NewRenoCc shared
//            across subflows; its increase uses only per-flow state, so a
//            shared instance *is* the uncoupled baseline).
//  coupled — LIA (RFC 6356), MPTCP's default:
//              w_i += min(alpha/w_total, 1/w_i) per packet acked, with
//              alpha = w_total * max_i(w_i/rtt_i^2) / (sum_i w_i/rtt_i)^2.
//  olia    — opportunistic linked increases (Khalili et al., CoNEXT'12):
//              w_i += (w_i/rtt_i^2) / (sum_p w_p/rtt_p)^2 + alpha_i/w_i,
//            where alpha_i shifts window between "best" paths (largest
//            inter-loss throughput estimate l_i^2/rtt_i) and max-window
//            paths. l_i is read from each flow's tcp::CcState.
//  vegas   — delay-based, uncoupled (tcp::VegasCc shared across subflows):
//            each path nudges its window by one MSS per RTT toward an
//            alpha..beta packet queue-occupancy target.
//
// Windows are computed in MSS units internally; increases are applied in
// bytes with appropriate byte counting.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "tcp/congestion.h"

namespace mpr::core {

enum class CcKind { kReno, kCoupled, kOlia, kVegas };

[[nodiscard]] std::string to_string(CcKind k);
/// Campaign-spec/CLI name -> kind: the to_string() spellings.
[[nodiscard]] std::optional<CcKind> cc_from_string(const std::string& s);
[[nodiscard]] std::unique_ptr<tcp::CongestionControl> make_congestion_control(CcKind k);

/// LIA — RFC 6356 "coupled" (the MPTCP default in the paper).
class LiaCc final : public tcp::RenoFamilyCc {
 protected:
  double ca_increase_bytes(tcp::FlowCc& flow, std::uint64_t acked_bytes) override;
};

/// OLIA — Khalili et al.
class OliaCc final : public tcp::RenoFamilyCc {
 protected:
  double ca_increase_bytes(tcp::FlowCc& flow, std::uint64_t acked_bytes) override;
  // OLIA's coupled term is bounded by 1/w_i and its alpha term by 0.5/w_i,
  // so the per-ack increase can legitimately reach 1.5x the Reno reference.
  [[nodiscard]] double ca_increase_cap_factor() const override { return 1.5; }

 private:
  /// alpha_i for `flow` given the current path sets (|R| = #flows).
  [[nodiscard]] double alpha_for(const tcp::FlowCc& flow) const;
};

}  // namespace mpr::core
