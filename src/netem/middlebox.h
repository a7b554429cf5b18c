// Middlebox interference emulation (NATs, proxies, firewalls).
//
// Measurement studies consistently find option-mangling middleboxes to be
// the dominant failure mode for MPTCP in the wild; RFC 6824 dedicates its
// fallback machinery to surviving them. A Middlebox installs itself as the
// ingress interceptor of an access network's links (before queueing, so a
// mangled packet serializes at its post-mangle wire size) and applies, in
// order: option stripping, NAT-style sequence rewriting, DSS-checksum
// corruption, segment coalescing and segment splitting.
//
// Everything is deterministic — behaviour is driven by counters and
// scripted scenario events (`0 wifi mbox strip_syn`), never by RNG draws —
// so runs stay bit-identical across MPR_JOBS settings.
//
// Cross-traffic phantoms (net::Packet::cross_traffic) reach the same link
// ingress and are mangled like the endpoints' packets: they advance the
// every-n-th split/corrupt cadence, and a split phantom adds a packet to the
// queue. They are counted apart, so stats() describes only what happened
// to the endpoints' traffic.
#pragma once

#include <cstdint>
#include <string>

#include "net/link.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/simulation.h"
#include "sim/time.h"
#include "sim/timer.h"

namespace mpr::netem {

class Middlebox {
 public:
  /// Which segments lose their MPTCP options.
  enum class Strip {
    kOff,
    kSyn,   // MP_CAPABLE / MP_JOIN removed from SYN-flagged segments
    kJoin,  // only MP_JOIN removed (first subflow unharmed)
    kAll,   // every MPTCP option removed from every segment (strict proxy)
  };

  struct Stats {
    std::uint64_t packets_seen{0};
    std::uint64_t options_stripped{0};
    std::uint64_t seq_rewrites{0};
    std::uint64_t segments_split{0};
    std::uint64_t segments_coalesced{0};
    std::uint64_t payloads_corrupted{0};
  };

  Middlebox(sim::Simulation& sim, std::string name);

  Middlebox(const Middlebox&) = delete;
  Middlebox& operator=(const Middlebox&) = delete;

  /// Interpose on the client->server direction.
  void attach_uplink(net::Link& link);
  /// Interpose on the server->client direction.
  void attach_downlink(net::Link& link);

  void set_strip(Strip s) { strip_ = s; }
  /// NAT-style rewrite: uplink sequence numbers shifted by `offset`,
  /// downlink acks/SACKs shifted back. Transparent to the endpoints when
  /// enabled before the connection starts.
  void set_nat_seq(std::uint64_t offset) { nat_offset_ = offset; }
  /// Split every n-th data segment into two halves; the tail half carries
  /// no options (its DSS mapping is lost). 0 disables.
  void set_split_every(std::uint32_t n) { split_every_ = n; }
  /// Coalesce back-to-back data segments, holding one for up to `hold`
  /// waiting for a contiguous successor. The merged segment keeps the first
  /// segment's DSS mapping, which then under-covers the payload. Zero
  /// disables (and flushes anything held).
  void set_coalesce_hold(sim::Duration hold);
  /// Corrupt every n-th data segment: the DSS checksum field is mangled
  /// when present (silent corruption otherwise). 0 disables.
  void set_corrupt_every(std::uint32_t n) { corrupt_every_ = n; }
  /// Scenario action "mbox off": back to a transparent wire.
  void reset_behaviour();

  /// What the middlebox did to the endpoints' packets.
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// What it did to cross-traffic phantoms.
  [[nodiscard]] const Stats& cross_traffic_stats() const { return cross_traffic_stats_; }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  struct Dir {
    Dir(sim::Simulation& sim, bool is_up) : up{is_up}, hold_timer{sim} {}
    net::Link* link{nullptr};
    bool up;
    net::PacketPtr held;  // coalescing: data segment awaiting a successor
    sim::Timer hold_timer;
    std::uint32_t split_seen{0};
    std::uint32_t corrupt_seen{0};
  };

  /// The counters `p` is tallied in.
  Stats& tally(const net::Packet& p) { return p.cross_traffic ? cross_traffic_stats_ : stats_; }
  void process(net::PacketPtr p, Dir& d);
  void strip_options(net::Packet& p);
  void rewrite_nat(net::Packet& p, const Dir& d);
  void maybe_corrupt(net::Packet& p, Dir& d);
  void coalesce_or_emit(net::PacketPtr p, Dir& d);
  void flush(Dir& d);
  void emit(net::PacketPtr p, Dir& d);

  sim::Simulation& sim_;
  std::string name_;
  Strip strip_{Strip::kOff};
  std::uint64_t nat_offset_{0};
  std::uint32_t split_every_{0};
  sim::Duration coalesce_hold_{};
  std::uint32_t corrupt_every_{0};
  Dir up_{sim_, true};
  Dir down_{sim_, false};
  Stats stats_;
  Stats cross_traffic_stats_;
};

}  // namespace mpr::netem
