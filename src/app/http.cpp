#include "app/http.h"

#include <cassert>
#include <utility>

namespace mpr::app {

namespace {

// `Stream` is a core::MptcpConnection or a tcp::TcpEndpoint: both deliver
// in-order bytes through on_data and take connect() and write(bytes).

/// Answers every complete kRequestBytes GET arriving on `stream` with the
/// next object of `object_size`.
template <typename Stream>
void serve_gets(Stream& stream, detail::GetCounts& st, const ObjectSizeFn& object_size) {
  stream.on_data = [&stream, &st, &object_size](std::uint64_t /*offset*/, std::uint32_t len) {
    st.bytes_received += len;
    while (st.bytes_received >= (st.requests_served + 1) * kRequestBytes) {
      const std::uint64_t size = object_size(st.requests_served);
      ++st.requests_served;
      stream.write(size);
    }
  };
}

[[nodiscard]] sim::TimePoint first_syn_time(const core::MptcpConnection& conn) {
  return conn.first_syn_time();
}
[[nodiscard]] sim::TimePoint first_syn_time(const tcp::TcpEndpoint& ep) {
  return ep.metrics().first_syn_time;
}

/// Completes `f`'s GET once the whole object has arrived on `stream`.
template <typename Stream>
void track_fetches(Stream& stream, detail::FetchState& f, const sim::Simulation& sim) {
  stream.on_data = [&f, &sim](std::uint64_t /*offset*/, std::uint32_t len) {
    if (!f.in_flight) return;
    f.received_bytes += len;
    if (f.received_bytes >= f.expected_bytes) {
      f.in_flight = false;
      f.current.complete_time = sim.now();
      if (f.done) f.done(f.current);
    }
  };
}

/// Issues a GET for `bytes` on `stream`, connecting it on the first GET.
template <typename Stream>
void start_fetch(Stream& stream, detail::FetchState& f, sim::TimePoint now, std::uint64_t bytes,
                 std::function<void(const FetchResult&)> done) {
  assert(!f.in_flight);
  f.in_flight = true;
  f.done = std::move(done);
  f.current = FetchResult{};
  f.current.request_time = now;
  f.current.bytes = bytes;
  f.expected_bytes = f.received_bytes + bytes;

  if (!f.connected) {
    f.connected = true;
    stream.connect();
    f.current.first_syn_time = first_syn_time(stream);
  } else {
    f.current.first_syn_time = f.current.request_time;
  }
  stream.write(kRequestBytes);
}

}  // namespace

// ---------------------------------------------------------------------------
// MPTCP.

MptcpHttpServer::MptcpHttpServer(net::Host& host, std::uint16_t port, core::MptcpConfig config,
                                 std::vector<net::IpAddr> advertise_extra,
                                 ObjectSizeFn object_size)
    : object_size_{std::move(object_size)} {
  assert(object_size_);
  server_ = std::make_unique<core::MptcpServer>(
      host, port, config, std::move(advertise_extra),
      [this](core::MptcpConnection& conn) {
        conns_.push_back(&conn);
        serve_gets(conn, *states_.emplace_back(std::make_unique<detail::GetCounts>()),
                   object_size_);
      },
      // SYNs whose MP_CAPABLE a middlebox stripped: serve them identically
      // over plain TCP (RFC 6824 §3.7 fallback).
      [this](tcp::TcpEndpoint& ep) {
        serve_gets(ep, *states_.emplace_back(std::make_unique<detail::GetCounts>()),
                   object_size_);
      });
}

MptcpHttpClient::MptcpHttpClient(net::Host& host, core::MptcpConfig config,
                                 std::vector<net::IpAddr> local_addrs, net::SocketAddr server)
    : host_{host} {
  const std::uint64_t key =
      static_cast<std::uint64_t>(host.sim().rng("mptcp.client.key").uniform_int(1, INT64_MAX));
  conn_ = std::make_unique<core::MptcpConnection>(host, config, std::move(local_addrs), server,
                                                  key);
  track_fetches(*conn_, fetch_, host_.sim());
}

void MptcpHttpClient::get(std::uint64_t bytes, std::function<void(const FetchResult&)> done) {
  start_fetch(*conn_, fetch_, host_.sim().now(), bytes, std::move(done));
}

// ---------------------------------------------------------------------------
// Plain TCP.

TcpHttpServer::TcpHttpServer(net::Host& host, std::uint16_t port, tcp::TcpConfig config,
                             ObjectSizeFn object_size)
    : object_size_{std::move(object_size)} {
  assert(object_size_);
  acceptor_ = std::make_unique<tcp::TcpAcceptor>(
      host, port, config, [this](tcp::TcpEndpoint& ep) {
        serve_gets(ep, *states_.emplace_back(std::make_unique<detail::GetCounts>()),
                   object_size_);
      });
}

TcpHttpClient::TcpHttpClient(net::Host& host, tcp::TcpConfig config, net::IpAddr local_addr,
                             net::SocketAddr server)
    : host_{host} {
  ep_ = std::make_unique<tcp::TcpEndpoint>(
      host, net::SocketAddr{local_addr, host.ephemeral_port()}, server, config);
  track_fetches(*ep_, fetch_, host_.sim());
}

void TcpHttpClient::get(std::uint64_t bytes, std::function<void(const FetchResult&)> done) {
  start_fetch(*ep_, fetch_, host_.sim().now(), bytes, std::move(done));
}

}  // namespace mpr::app
