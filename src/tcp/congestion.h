// Congestion-control interface.
//
// The controller is separated from the endpoint so that MPTCP can share one
// controller instance across subflows (the couplings operate on the joint
// state of all windows — §2.2.2 of the paper). Single-path TCP uses
// NewRenoCc with a single registered flow.
//
// All controllers in the paper share the same slow-start and
// multiplicative-decrease behaviour and differ only in the
// congestion-avoidance increase; RenoFamilyCc factors that out. The loss
// response (halve on a loss event, collapse to 1 MSS on an RTO) is
// CongestionControl's own, so Vegas shares it too. What a controller keeps
// per flow lives in the flow's CcState, as Linux keeps it in the socket
// (inet_csk_ca).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace mpr::tcp {

/// What the controllers keep per flow. Plain data in the flow itself,
/// zeroed by CongestionControl::register_flow; each controller reads only
/// its own fields.
struct CcState {
  double bytes_since_loss{0};           // OLIA l1_i: acked since the last loss
  double bytes_between_last_losses{0};  // OLIA l2_i: acked between the last two
  std::uint64_t epoch_bytes{0};         // Vegas: acked toward the current epoch
  double epoch_window{0};               // Vegas: the window the current epoch opened with
  sim::Duration base_rtt{};             // Vegas: min srtt seen (zero = no sample)
};

/// The controller's view of one flow's congestion state. Implemented by
/// TcpEndpoint. Windows are in bytes (double, so sub-MSS increments
/// accumulate); the CC formulas from the paper are expressed in MSS units
/// and converted internally.
class FlowCc {
 public:
  virtual ~FlowCc() = default;
  [[nodiscard]] virtual double cwnd_bytes() const = 0;
  virtual void set_cwnd_bytes(double w) = 0;
  [[nodiscard]] virtual std::uint64_t ssthresh_bytes() const = 0;
  virtual void set_ssthresh_bytes(std::uint64_t s) = 0;
  [[nodiscard]] virtual std::uint32_t mss() const = 0;
  /// Smoothed RTT; a sane positive default before the first sample.
  [[nodiscard]] virtual sim::Duration srtt() const = 0;
  [[nodiscard]] virtual std::uint64_t bytes_in_flight() const = 0;

  [[nodiscard]] bool in_slow_start() const {
    return cwnd_bytes() < static_cast<double>(ssthresh_bytes());
  }

  CcState cc_state;
};

class CongestionControl {
 public:
  virtual ~CongestionControl() = default;

  /// Flows must register before generating events and unregister on close.
  void register_flow(FlowCc& flow) {
    flow.cc_state = {};
    flows_.push_back(&flow);
  }
  void unregister_flow(FlowCc& flow) { std::erase(flows_, &flow); }

  /// New data acknowledged on `flow` (acked_bytes > 0).
  virtual void on_ack(FlowCc& flow, std::uint64_t acked_bytes) = 0;
  /// Loss event detected by fast retransmit (at most once per window):
  /// halve the window (w <- w/2, floored at 2 MSS).
  void on_loss_event(FlowCc& flow);
  /// Retransmission timeout: ssthresh to half the flight (floored at
  /// 2 MSS), the window to 1 MSS, and the base RTT forgotten (the path may
  /// have changed across an outage).
  void on_rto(FlowCc& flow);

 protected:
  [[nodiscard]] const std::vector<FlowCc*>& flows() const { return flows_; }

 private:
  std::vector<FlowCc*> flows_;
};

/// Common Reno-family behaviour: standard slow start below ssthresh.
/// Subclasses supply the congestion-avoidance increase in bytes for
/// `acked_bytes` of acknowledged data.
class RenoFamilyCc : public CongestionControl {
 public:
  void on_ack(FlowCc& flow, std::uint64_t acked_bytes) override;

 protected:
  [[nodiscard]] virtual double ca_increase_bytes(FlowCc& flow, std::uint64_t acked_bytes) = 0;
  /// Audit bound (RFC 6356 §4): largest CA increase the controller may apply
  /// relative to an uncoupled New Reno flow. 1.0 for Reno/LIA; OLIA's
  /// rate-balancing alpha term can add up to 0.5/w on top of its coupled term.
  [[nodiscard]] virtual double ca_increase_cap_factor() const { return 1.0; }
};

/// Plain TCP New Reno: w += 1/w per ACK in congestion avoidance. Used for
/// single-path TCP and as MPTCP's "uncoupled reno" baseline (each subflow
/// behaves as an independent New Reno flow — the paper's `reno`).
class NewRenoCc final : public RenoFamilyCc {
 protected:
  double ca_increase_bytes(FlowCc& flow, std::uint64_t acked_bytes) override {
    // Δw = MSS·MSS/w per MSS acked  ==  MSS·acked/w bytes per ack (ABC).
    return static_cast<double>(flow.mss()) * static_cast<double>(acked_bytes) /
           flow.cwnd_bytes();
  }
};

/// TCP Vegas (Brakmo & Peterson '95), simplified to the per-RTT-epoch form:
/// once per window of acked bytes, estimate the packets queued in the
/// network as diff = (w/MSS)·(rtt - base_rtt)/rtt and nudge the window by
/// one MSS — up when diff < alpha (the pipe is under-filled), down when
/// diff > beta (we are building queue). Slow start is byte-counted like
/// Reno but exits as soon as diff exceeds gamma, well before loss. Loss
/// handling stays Reno (CongestionControl's): delay only modulates
/// congestion avoidance. Uncoupled across subflows — each flow keeps its
/// own base-RTT estimate, so on MPTCP the WiFi and cellular paths probe
/// their queues independently.
class VegasCc final : public CongestionControl {
 public:
  void on_ack(FlowCc& flow, std::uint64_t acked_bytes) override;

 private:
  // Thresholds in packets of estimated queue occupancy (Vegas defaults).
  static constexpr double kAlphaPkts = 2.0;
  static constexpr double kBetaPkts = 4.0;
  static constexpr double kGammaPkts = 1.0;
};

}  // namespace mpr::tcp
