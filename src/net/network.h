// Network fabric: routes packets between hosts through per-client-interface
// access links.
//
// Topology model (matching the paper's testbed): the bottleneck of every path
// is the client-side access network (WiFi AP + backhaul, or the cellular
// radio access network). Each client interface owns one uplink and one
// downlink; all subflows using that interface — to either server NIC — share
// them, which is what makes 4-path MPTCP share the two physical media.
// Server NICs sit on 1 Gbit/s wired LANs, modelled as a fixed small wired
// delay folded into the access links.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "net/link.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/simulation.h"

namespace mpr::net {

/// Passive observer of packet events, used by the trace/analysis layer.
/// Holds a reference into the live packet — observers must copy out any
/// fields they keep; the packet is recycled once delivery completes.
struct TraceEvent {
  enum class Kind { kSend, kDeliver, kDrop };
  Kind kind{Kind::kSend};
  sim::TimePoint time;
  const Packet& packet;
};

class Network {
 public:
  using DeliverFn = std::function<void(PacketPtr)>;
  using Observer = std::function<void(const TraceEvent&)>;

  explicit Network(sim::Simulation& sim) : sim_{sim} {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers final delivery for packets addressed to `addr`.
  void attach_host(IpAddr addr, DeliverFn deliver);

  /// Registers the access links of a client interface. Packets sourced from
  /// `client_addr` traverse `up`; packets destined to it traverse `down`.
  /// Links must outlive the network.
  void set_access(IpAddr client_addr, Link* up, Link* down);

  /// Entry point for hosts. Routes via the appropriate access link, or, if
  /// neither side has one, delivers after `wired_delay()`.
  void send(PacketPtr p);

  /// Called by links when a packet exits the access network; delivers to the
  /// destination host (and notifies observers). Public so links can bind it.
  void deliver_local(PacketPtr p);

  void add_observer(Observer o) { observers_.push_back(std::move(o)); }
  void notify_drop(const Packet& p);

  [[nodiscard]] sim::Duration wired_delay() const { return wired_delay_; }

  [[nodiscard]] std::uint64_t next_packet_uid() { return next_uid_++; }

 private:
  void notify(TraceEvent::Kind kind, const Packet& p);

  sim::Simulation& sim_;
  std::unordered_map<IpAddr, DeliverFn> hosts_;
  std::unordered_map<IpAddr, Link*> uplinks_;
  std::unordered_map<IpAddr, Link*> downlinks_;
  std::vector<Observer> observers_;
  sim::Duration wired_delay_{sim::Duration::millis(1)};
  std::uint64_t next_uid_{1};
};

}  // namespace mpr::net
