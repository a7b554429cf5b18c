// Passive-open dispatcher.
//
// Listens on a port across all of a host's addresses and hands raw SYN
// packets to a handler. The plain-TCP handler builds a TcpEndpoint per
// connection; the MPTCP server installs its own handler that distinguishes
// MP_CAPABLE (new connection) from MP_JOIN (additional subflow).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/host.h"
#include "tcp/endpoint.h"

namespace mpr::tcp {

class TcpListener {
 public:
  using SynHandler = std::function<void(const net::Packet& syn)>;

  TcpListener(net::Host& host, std::uint16_t port, SynHandler handler);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] net::Host& host() { return host_; }
  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  net::Host& host_;
  std::uint16_t port_;
};

/// Plain single-path TCP acceptor: owns the accepted endpoints and invokes
/// `on_accept` for application wiring. Each endpoint registers its flow with
/// the host, which matches flows before listeners, so a retransmitted SYN
/// reaches the endpoint, never the acceptor.
class TcpAcceptor {
 public:
  using AcceptFn = std::function<void(TcpEndpoint&)>;

  TcpAcceptor(net::Host& host, std::uint16_t port, TcpConfig config, AcceptFn on_accept);

  /// The accepted endpoints, in accept order.
  [[nodiscard]] std::vector<TcpEndpoint*> connections();

 private:
  void on_syn(const net::Packet& syn);

  net::Host& host_;
  TcpConfig config_;
  AcceptFn on_accept_;
  std::unique_ptr<TcpListener> listener_;
  std::vector<std::unique_ptr<TcpEndpoint>> connections_;
};

}  // namespace mpr::tcp
