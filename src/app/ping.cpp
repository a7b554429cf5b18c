#include "app/ping.h"

namespace mpr::app {

PingResponder::PingResponder(net::Host& host) : host_{host} {
  host_.listen(kPingPort, [this](net::PacketPtr p) {
    net::PacketPtr reply = host_.pool().acquire();
    reply->src = p->dst;
    reply->dst = p->src;
    reply->tcp.src_port = p->tcp.dst_port;
    reply->tcp.dst_port = p->tcp.src_port;
    reply->payload_bytes = p->payload_bytes;
    host_.send(std::move(reply));
  });
}

PingAgent::PingAgent(net::Host& host, net::IpAddr local_addr, net::IpAddr server_addr)
    : host_{host},
      local_{local_addr, host.ephemeral_port()},
      remote_{server_addr, kPingPort} {
  host_.register_flow(net::FlowKey{local_, remote_}, [this](net::PacketPtr) { on_reply(); });
}

PingAgent::~PingAgent() {
  host_.unregister_flow(net::FlowKey{local_, remote_});
}

void PingAgent::ping(int count, std::function<void()> done) {
  remaining_ = count;
  done_ = std::move(done);
  send_one();
}

void PingAgent::send_one() {
  if (remaining_ <= 0) {
    if (done_) done_();
    return;
  }
  --remaining_;
  outstanding_ = 1;
  net::PacketPtr p = host_.pool().acquire();
  p->src = local_.addr;
  p->dst = remote_.addr;
  p->tcp.src_port = local_.port;
  p->tcp.dst_port = remote_.port;
  p->payload_bytes = 24;
  host_.send(std::move(p));
  timeout_.arm_after(sim::Duration::seconds(1), [this] {
    if (outstanding_ > 0) {
      outstanding_ = 0;
      send_one();  // give up on this one
    }
  });
}

void PingAgent::on_reply() {
  if (outstanding_ == 0) return;
  outstanding_ = 0;
  ++replies_;
  timeout_.cancel();
  send_one();
}

}  // namespace mpr::app
