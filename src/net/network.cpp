#include "net/network.h"

#include <cassert>
#include <utility>

namespace mpr::net {

void Network::attach_host(IpAddr addr, DeliverFn deliver) {
  assert(deliver);
  hosts_[addr] = std::move(deliver);
}

void Network::set_access(IpAddr client_addr, Link* up, Link* down) {
  assert(up != nullptr && down != nullptr);
  uplinks_[client_addr] = up;
  downlinks_[client_addr] = down;
  up->set_drop_observer([this](const Packet& p) { notify_drop(p); });
  down->set_drop_observer([this](const Packet& p) { notify_drop(p); });
}

void Network::send(PacketPtr p) {
  notify(TraceEvent::Kind::kSend, *p);
  if (const auto it = uplinks_.find(p->src); it != uplinks_.end()) {
    it->second->send(std::move(p));
    return;
  }
  if (const auto it = downlinks_.find(p->dst); it != downlinks_.end()) {
    it->second->send(std::move(p));
    return;
  }
  // No access network on either side (e.g. wired test rigs): direct delivery.
  sim_.after(wired_delay_, [this, pkt = std::move(p)]() mutable { deliver_local(std::move(pkt)); });
}

void Network::deliver_local(PacketPtr p) {
  const auto it = hosts_.find(p->dst);
  if (it == hosts_.end()) return;  // no host owns the address: dropped
  notify(TraceEvent::Kind::kDeliver, *p);
  it->second(std::move(p));
}

void Network::notify_drop(const Packet& p) { notify(TraceEvent::Kind::kDrop, p); }

void Network::notify(TraceEvent::Kind kind, const Packet& p) {
  if (observers_.empty()) return;
  const TraceEvent ev{kind, sim_.now(), p};
  for (const auto& o : observers_) o(ev);
}

}  // namespace mpr::net
