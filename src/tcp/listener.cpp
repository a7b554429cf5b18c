#include "tcp/listener.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mpr::tcp {

TcpListener::TcpListener(net::Host& host, std::uint16_t port, SynHandler handler)
    : host_{host}, port_{port} {
  assert(handler);
  host_.listen(port, [h = std::move(handler)](net::PacketPtr p) {
    if (p->tcp.has(net::kFlagSyn) && !p->tcp.has(net::kFlagAck)) h(*p);
    // Non-SYN packets to no known flow are dropped (counted by the host).
  });
}

TcpListener::~TcpListener() { host_.stop_listening(port_); }

TcpAcceptor::TcpAcceptor(net::Host& host, std::uint16_t port, TcpConfig config,
                         AcceptFn on_accept)
    : host_{host}, config_{config}, on_accept_{std::move(on_accept)} {
  listener_ = std::make_unique<TcpListener>(
      host, port, [this](const net::Packet& syn) { on_syn(syn); });
}

void TcpAcceptor::on_syn(const net::Packet& syn) {
  const net::SocketAddr local{syn.dst, syn.tcp.dst_port};
  const net::SocketAddr remote{syn.src, syn.tcp.src_port};
  const net::FlowKey key{local, remote};
  const auto at = std::lower_bound(connections_.begin(), connections_.end(), key,
                                   [](const Conn& c, const net::FlowKey& k) { return c.key < k; });
  if (at != connections_.end() && at->key == key) {
    return;  // duplicate SYN; endpoint handles it
  }

  auto ep = std::make_unique<TcpEndpoint>(host_, local, remote, config_);
  TcpEndpoint& ref = *ep;
  connections_.insert(at, Conn{key, std::move(ep)});
  ref.accept_syn(syn);
  if (on_accept_) on_accept_(ref);
}

std::vector<TcpEndpoint*> TcpAcceptor::connections() {
  std::vector<TcpEndpoint*> out;
  out.reserve(connections_.size());
  for (auto& c : connections_) out.push_back(c.ep.get());
  return out;
}

}  // namespace mpr::tcp
