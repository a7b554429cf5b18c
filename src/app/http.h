// HTTP-style application layer.
//
// Models the paper's workload: a wget-like client issues a GET and the
// Apache-like server answers with an object of known size. Payloads are
// byte counts, so the requested object size travels out of band: the server
// is configured with an object-size function (request index -> bytes), and
// client and server are set up by the same harness with the same workload —
// equivalent to encoding the size in the URL.
//
// Requests are fixed-size (kRequestBytes); persistent connections carry any
// number of sequential requests (used by the streaming client).
//
// Download time is defined exactly as in §3.3: from the client's first SYN
// to the arrival of the last payload byte.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/connection.h"
#include "core/server.h"
#include "tcp/listener.h"

namespace mpr::app {

inline constexpr std::uint64_t kRequestBytes = 120;

/// Returns the response size for the i-th request on a connection.
using ObjectSizeFn = std::function<std::uint64_t(std::uint64_t request_index)>;

/// Result of one GET as observed by the client.
struct FetchResult {
  sim::TimePoint request_time;   // when the GET was issued
  sim::TimePoint first_syn_time; // connection establishment start
  sim::TimePoint complete_time;  // last payload byte received
  std::uint64_t bytes{0};

  /// Paper metric: first SYN -> last data byte (first request only).
  [[nodiscard]] sim::Duration download_time() const { return complete_time - first_syn_time; }
  /// Per-request latency (request sent -> last byte), used by streaming.
  [[nodiscard]] sim::Duration fetch_time() const { return complete_time - request_time; }
};

namespace detail {

/// Server side of one connection: request bytes received, GETs answered.
struct GetCounts {
  std::uint64_t bytes_received{0};
  std::uint64_t requests_served{0};
};

/// Client side: the GET in flight on the client's one connection.
struct FetchState {
  bool connected{false};
  bool in_flight{false};
  std::uint64_t expected_bytes{0};
  std::uint64_t received_bytes{0};
  FetchResult current;
  std::function<void(const FetchResult&)> done;
};

}  // namespace detail

// ---------------------------------------------------------------------------
// MPTCP flavour.

class MptcpHttpServer {
 public:
  MptcpHttpServer(net::Host& host, std::uint16_t port, core::MptcpConfig config,
                  std::vector<net::IpAddr> advertise_extra, ObjectSizeFn object_size);

  [[nodiscard]] core::MptcpServer& server() { return *server_; }
  [[nodiscard]] std::vector<core::MptcpConnection*> connections() { return conns_; }

 private:
  ObjectSizeFn object_size_;
  std::unique_ptr<core::MptcpServer> server_;
  std::vector<core::MptcpConnection*> conns_;
  std::vector<std::unique_ptr<detail::GetCounts>> states_;
};

class MptcpHttpClient {
 public:
  MptcpHttpClient(net::Host& host, core::MptcpConfig config,
                  std::vector<net::IpAddr> local_addrs, net::SocketAddr server);

  /// Issues a GET for `bytes`; `done` fires when the full object arrived.
  /// The first GET establishes the connection. Requests are sequential:
  /// issuing a new one before `done` is undefined.
  void get(std::uint64_t bytes, std::function<void(const FetchResult&)> done);

  [[nodiscard]] core::MptcpConnection& connection() { return *conn_; }
  [[nodiscard]] bool idle() const { return !fetch_.in_flight; }

 private:
  net::Host& host_;
  std::unique_ptr<core::MptcpConnection> conn_;
  detail::FetchState fetch_;
};

// ---------------------------------------------------------------------------
// Single-path TCP flavour (the paper's SP baselines).

class TcpHttpServer {
 public:
  TcpHttpServer(net::Host& host, std::uint16_t port, tcp::TcpConfig config,
                ObjectSizeFn object_size);

  [[nodiscard]] std::vector<tcp::TcpEndpoint*> connections() { return acceptor_->connections(); }

 private:
  ObjectSizeFn object_size_;
  std::unique_ptr<tcp::TcpAcceptor> acceptor_;
  std::vector<std::unique_ptr<detail::GetCounts>> states_;
};

class TcpHttpClient {
 public:
  TcpHttpClient(net::Host& host, tcp::TcpConfig config, net::IpAddr local_addr,
                net::SocketAddr server);

  void get(std::uint64_t bytes, std::function<void(const FetchResult&)> done);

  [[nodiscard]] tcp::TcpEndpoint& endpoint() { return *ep_; }
  [[nodiscard]] bool idle() const { return !fetch_.in_flight; }

 private:
  net::Host& host_;
  std::unique_ptr<tcp::TcpEndpoint> ep_;
  detail::FetchState fetch_;
};

}  // namespace mpr::app
