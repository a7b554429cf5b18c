#include "core/server.h"

#include <utility>

namespace mpr::core {

MptcpServer::MptcpServer(net::Host& host, std::uint16_t port, MptcpConfig config,
                         std::vector<net::IpAddr> advertise_extra, AcceptFn on_accept,
                         AcceptTcpFn on_accept_tcp)
    : host_{host},
      config_{config},
      advertise_extra_{std::move(advertise_extra)},
      on_accept_{std::move(on_accept)},
      on_accept_tcp_{std::move(on_accept_tcp)},
      key_rng_{host.sim().rng("mptcp.server.keys")} {
  listener_ = std::make_unique<tcp::TcpListener>(
      host, port, [this](const net::Packet& syn) { on_syn(syn); });
}

std::vector<tcp::TcpEndpoint*> MptcpServer::tcp_fallback_connections() {
  std::vector<tcp::TcpEndpoint*> out;
  out.reserve(tcp_fallback_.size());
  for (const auto& ep : tcp_fallback_) out.push_back(ep.get());
  return out;
}

void MptcpServer::refuse_plain_syn(const net::Packet& syn) {
  // Fallback disabled: answer with RST so the client fails fast instead of
  // retransmitting its SYN into a black hole.
  net::PacketPtr rst = host_.pool().acquire();
  rst->src = syn.dst;
  rst->dst = syn.src;
  rst->tcp.src_port = syn.tcp.dst_port;
  rst->tcp.dst_port = syn.tcp.src_port;
  rst->tcp.flags = net::kFlagRst | net::kFlagAck;
  rst->tcp.seq = 0;
  rst->tcp.ack = syn.tcp.seq + 1;
  rst->first_sent_time = host_.sim().now();
  ++resets_sent_;
  host_.send(std::move(rst));
}

void MptcpServer::on_syn(const net::Packet& syn) {
  if (const net::MpJoinOption* join = syn.tcp.mp_join()) {
    const auto it = by_token_.find(join->token);
    if (it == by_token_.end()) {
      // Join for an unknown connection (e.g. simultaneous SYN racing ahead
      // of the MP_CAPABLE SYN): drop; the client retransmits.
      ++rejected_joins_;
      return;
    }
    it->second->accept_join(syn);
    return;
  }
  if (syn.tcp.mp_capable() == nullptr) {
    // A middlebox stripped MP_CAPABLE (or the client is plain TCP): accept
    // as single-path TCP, or refuse explicitly — never a silent drop. The
    // endpoint registers its flow, so this SYN's retransmissions reach it.
    if (!config_.allow_tcp_fallback) {
      refuse_plain_syn(syn);
      return;
    }
    auto ep = std::make_unique<tcp::TcpEndpoint>(
        host_, net::SocketAddr{syn.dst, syn.tcp.dst_port},
        net::SocketAddr{syn.src, syn.tcp.src_port}, config_.subflow);
    tcp::TcpEndpoint& ref = *ep;
    tcp_fallback_.push_back(std::move(ep));
    // Count the fallback only once the handshake completes: a naked MP_JOIN
    // SYN (join stripped mid-path) also lands here, but the client resets the
    // half-open subflow instead of finishing it — that is a refused join, not
    // a plain-TCP connection.
    ref.on_established = [this] { ++tcp_fallback_accepts_; };
    if (on_accept_tcp_) on_accept_tcp_(ref);  // app wiring before any data
    ref.accept_syn(syn);
    return;
  }

  const std::uint64_t server_key =
      static_cast<std::uint64_t>(key_rng_.uniform_int(1, INT64_MAX));
  auto conn = std::make_unique<MptcpConnection>(host_, config_, syn, advertise_extra_,
                                                server_key);
  MptcpConnection& ref = *conn;
  by_token_[ref.token()] = &ref;
  connections_.push_back(std::move(conn));
  if (on_accept_) on_accept_(ref);
}

}  // namespace mpr::core
