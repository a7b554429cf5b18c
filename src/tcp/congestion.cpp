#include "tcp/congestion.h"

#include <algorithm>

#include "check/audit.h"

namespace mpr::tcp {

namespace {

// A loss closes OLIA's inter-loss interval and restarts the Vegas epoch.
void close_loss_interval(CcState& st) {
  st.bytes_between_last_losses = st.bytes_since_loss;
  st.bytes_since_loss = 0.0;
  st.epoch_bytes = 0;
}

}  // namespace

void CongestionControl::on_loss_event(FlowCc& flow) {
  close_loss_interval(flow.cc_state);
  const double floor = 2.0 * flow.mss();
  const double halved = std::max(flow.cwnd_bytes() / 2.0, floor);
  flow.set_ssthresh_bytes(static_cast<std::uint64_t>(halved));
  flow.set_cwnd_bytes(halved);
#if MPR_AUDIT
  check::cc_bounds(flow.cwnd_bytes(), flow.ssthresh_bytes(), flow.mss());
#endif
}

void CongestionControl::on_rto(FlowCc& flow) {
  close_loss_interval(flow.cc_state);
  flow.cc_state.base_rtt = sim::Duration{};
  const double half_flight =
      std::max(static_cast<double>(flow.bytes_in_flight()) / 2.0, 2.0 * flow.mss());
  flow.set_ssthresh_bytes(static_cast<std::uint64_t>(half_flight));
  flow.set_cwnd_bytes(static_cast<double>(flow.mss()));
#if MPR_AUDIT
  check::cc_bounds(flow.cwnd_bytes(), flow.ssthresh_bytes(), flow.mss());
#endif
}

void RenoFamilyCc::on_ack(FlowCc& flow, std::uint64_t acked_bytes) {
  flow.cc_state.bytes_since_loss += static_cast<double>(acked_bytes);
  if (flow.in_slow_start()) {
    // Standard slow start with appropriate byte counting: grow by the number
    // of bytes acknowledged (doubles the window per RTT with per-packet
    // ACKs; RFC 5681 §3.1).
    const double headroom =
        static_cast<double>(flow.ssthresh_bytes()) - flow.cwnd_bytes();
    const double ss_inc = std::min(static_cast<double>(acked_bytes), headroom);
    flow.set_cwnd_bytes(flow.cwnd_bytes() + ss_inc);
    const double leftover = static_cast<double>(acked_bytes) - ss_inc;
    if (leftover <= 0) return;
    // Bytes beyond ssthresh continue in congestion avoidance below.
    acked_bytes = static_cast<std::uint64_t>(leftover);
  }
#if MPR_AUDIT
  const double inc = ca_increase_bytes(flow, acked_bytes);
  const double reno_ref = static_cast<double>(flow.mss()) *
                          static_cast<double>(acked_bytes) / flow.cwnd_bytes();
  check::cc_aggregate_increase(inc, reno_ref, ca_increase_cap_factor());
  flow.set_cwnd_bytes(flow.cwnd_bytes() + inc);
  check::cc_bounds(flow.cwnd_bytes(), flow.ssthresh_bytes(), flow.mss());
#else
  flow.set_cwnd_bytes(flow.cwnd_bytes() + ca_increase_bytes(flow, acked_bytes));
#endif
}

// ---------------------------------------------------------------------------
// Vegas.

void VegasCc::on_ack(FlowCc& flow, std::uint64_t acked_bytes) {
  CcState& st = flow.cc_state;
  const sim::Duration rtt = flow.srtt();
  if (st.base_rtt.ns() == 0 || rtt < st.base_rtt) st.base_rtt = rtt;
  // One Vegas decision per RTT: an epoch opens with the window its first
  // ack finds and closes once that many bytes have been acknowledged.
  // Slow start grows the window by every acked byte, so an epoch measured
  // against the current window would never close there.
  if (st.epoch_bytes == 0) st.epoch_window = flow.cwnd_bytes();

  if (flow.in_slow_start()) {
    // Byte-counted slow start (RFC 5681 §3.1), clamped at ssthresh; the
    // delay signal decides below — once per epoch — whether to leave it.
    const double headroom =
        static_cast<double>(flow.ssthresh_bytes()) - flow.cwnd_bytes();
    flow.set_cwnd_bytes(flow.cwnd_bytes() +
                        std::min(static_cast<double>(acked_bytes),
                                 std::max(headroom, 0.0)));
  }

  st.epoch_bytes += acked_bytes;
  if (static_cast<double>(st.epoch_bytes) < st.epoch_window) return;
  st.epoch_bytes = 0;

  const double rtt_ns = static_cast<double>(rtt.ns());
  const double base_ns = static_cast<double>(st.base_rtt.ns());
  if (rtt_ns <= 0) return;
  const double mss = static_cast<double>(flow.mss());
  const double cwnd = flow.cwnd_bytes();
  const double diff_pkts = (cwnd / mss) * (rtt_ns - base_ns) / rtt_ns;

  if (flow.in_slow_start()) {
    if (diff_pkts > kGammaPkts) {
      // Queue is forming: exit slow start here instead of waiting for loss.
      flow.set_ssthresh_bytes(static_cast<std::uint64_t>(cwnd));
    }
    return;
  }

  double delta = 0.0;
  if (diff_pkts < kAlphaPkts) {
    delta = mss;  // pipe under-filled: probe for more
  } else if (diff_pkts > kBetaPkts) {
    delta = -mss;  // queue building: back off before loss does it for us
  }
  if (delta != 0.0) flow.set_cwnd_bytes(cwnd + delta);
#if MPR_AUDIT
  check::cc_vegas_adjust(delta, flow.mss(), flow.cwnd_bytes());
  check::cc_bounds(flow.cwnd_bytes(), flow.ssthresh_bytes(), flow.mss());
#endif
}

}  // namespace mpr::tcp
