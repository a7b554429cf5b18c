// Per-flow metrics, kept by each endpoint.
//
// Definitions mirror §3.3 of the paper:
//  * loss rate  = retransmitted data packets / data packets sent (sender side)
//  * RTT sample = data send -> covering ACK, excluding retransmitted
//    segments (Karn's rule), one sample per acknowledged segment
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"

namespace mpr::tcp {

struct FlowMetrics {
  // Sender side.
  std::uint64_t data_packets_sent{0};   // payload-carrying packets, incl. rexmits
  std::uint64_t rexmit_packets{0};
  std::uint64_t bytes_sent{0};          // payload bytes, incl. rexmits
  std::uint64_t dupacks{0};
  std::uint64_t fast_retransmit_events{0};
  std::uint64_t timeouts{0};
  std::vector<sim::Duration> rtt_samples;

  // Receiver side.
  std::uint64_t data_packets_received{0};
  std::uint64_t bytes_received{0};      // in-order payload delivered up

  // Timeline.
  sim::TimePoint first_syn_time;
  sim::TimePoint established_time;

  [[nodiscard]] double loss_rate() const {
    return data_packets_sent == 0
               ? 0.0
               : static_cast<double>(rexmit_packets) / static_cast<double>(data_packets_sent);
  }
};

}  // namespace mpr::tcp
