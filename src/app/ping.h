// ICMP-style echo, used to warm the cellular radio before measurements.
//
// The paper (§3.2) sends two pings and waits for the responses so the RRC
// state machine is in the ready state when the download starts; PingAgent
// reproduces that procedure on the simulated network.
#pragma once

#include <cstdint>
#include <functional>

#include "net/host.h"
#include "sim/timer.h"

namespace mpr::app {

inline constexpr std::uint16_t kPingPort = 7;

/// Echo responder; install one on the server host.
class PingResponder {
 public:
  explicit PingResponder(net::Host& host);

 private:
  net::Host& host_;
};

/// Client-side pinger bound to one interface.
class PingAgent {
 public:
  PingAgent(net::Host& host, net::IpAddr local_addr, net::IpAddr server_addr);
  ~PingAgent();

  /// Sends `count` pings back to back (next one on reply or after a 1 s
  /// timeout); `done` fires when all have been answered or timed out.
  void ping(int count, std::function<void()> done);

  [[nodiscard]] int replies() const { return replies_; }

 private:
  void send_one();
  void on_reply();

  net::Host& host_;
  net::SocketAddr local_;
  net::SocketAddr remote_;
  int outstanding_{0};
  int remaining_{0};
  int replies_{0};
  sim::Timer timeout_{host_.sim()};
  std::function<void()> done_;
};

}  // namespace mpr::app
