// Unit tests for the network substrate: packets, loss models, links
// (serialization, queueing, FIFO ordering, gating), routing and host demux.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "net/host.h"
#include "net/link.h"
#include "net/loss.h"
#include "net/network.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "sim/simulation.h"

namespace mpr::net {
namespace {

Packet make_data_packet(IpAddr src, IpAddr dst, std::uint32_t payload) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.tcp.src_port = 1000;
  p.tcp.dst_port = 2000;
  p.payload_bytes = payload;
  return p;
}

/// Pooled variant for the ownership (send) paths.
PacketPtr pooled_data_packet(sim::Simulation& sim, IpAddr src, IpAddr dst,
                             std::uint32_t payload) {
  PacketPtr p = sim.service<PacketPool>().acquire();
  p->src = src;
  p->dst = dst;
  p->tcp.src_port = 1000;
  p->tcp.dst_port = 2000;
  p->payload_bytes = payload;
  return p;
}

TEST(PacketTest, WireBytesIncludesHeaders) {
  Packet p = make_data_packet(IpAddr{1}, IpAddr{2}, 1000);
  EXPECT_EQ(p.wire_bytes(), 1040u);  // 40-byte IP+TCP header
}

TEST(PacketTest, WireBytesIncludesOptions) {
  Packet p = make_data_packet(IpAddr{1}, IpAddr{2}, 0);
  const std::uint32_t base = p.wire_bytes();
  p.tcp.set_dss(DssOption{});
  EXPECT_EQ(p.wire_bytes(), base + 20);
  p.tcp.sack.push_back(SackBlock{0, 10});
  p.tcp.sack.push_back(SackBlock{20, 30});
  EXPECT_EQ(p.wire_bytes(), base + 20 + 2 + 16);
  p.tcp.set_mp_capable(MpCapableOption{});
  p.tcp.set_mp_join(MpJoinOption{});
  p.tcp.set_add_addr(AddAddrOption{});
  EXPECT_EQ(p.wire_bytes(), base + 20 + 18 + 12 + 12 + 8);
}

TEST(PacketTest, FlagsAndFlowKey) {
  Packet p = make_data_packet(IpAddr{1}, IpAddr{2}, 0);
  p.tcp.flags = kFlagSyn | kFlagAck;
  EXPECT_TRUE(p.tcp.has(kFlagSyn));
  EXPECT_TRUE(p.tcp.has(kFlagAck));
  EXPECT_FALSE(p.tcp.has(kFlagFin));
  const FlowKey f = p.flow();
  EXPECT_EQ(f.src.addr, IpAddr{1});
  EXPECT_EQ(f.dst.port, 2000);
  EXPECT_EQ(f.reversed().src.port, 2000);
}

TEST(PacketTest, ToStringRendersFlagsAndSeq) {
  Packet p = make_data_packet(IpAddr{1}, IpAddr{2}, 99);
  p.tcp.flags = kFlagSyn;
  p.tcp.seq = 7;
  const std::string s = to_string(p);
  EXPECT_NE(s.find("[S]"), std::string::npos);
  EXPECT_NE(s.find("seq=7"), std::string::npos);
  EXPECT_NE(s.find("len=99"), std::string::npos);
}

// Fill every Packet field — header, timestamps, SACK, and a random subset of
// options — with draws from `rng`, through the public mutators.
void scribble_packet(Packet& p, sim::Rng& rng) {
  p.uid = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
  p.src = IpAddr{static_cast<std::uint32_t>(rng.uniform_int(1, 255))};
  p.dst = IpAddr{static_cast<std::uint32_t>(rng.uniform_int(1, 255))};
  p.payload_bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 1460));
  p.is_retransmit = rng.chance(0.5);
  p.cross_traffic = rng.chance(0.5);
  p.first_sent_time = sim::TimePoint::from_ns(rng.uniform_int(1, 1'000'000));
  p.enqueue_time = sim::TimePoint::from_ns(rng.uniform_int(1, 1'000'000));
  p.tcp.src_port = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
  p.tcp.dst_port = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
  p.tcp.flags = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
  p.tcp.seq = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
  p.tcp.ack = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
  p.tcp.wnd = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
  const auto blocks = rng.uniform_int(0, static_cast<std::int64_t>(kMaxSackBlocks));
  for (std::int64_t i = 0; i < blocks; ++i) {
    const auto b = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    p.tcp.sack.push_back(SackBlock{b, b + 1000});
  }
  if (rng.chance(0.7)) {
    DssOption& dss = p.tcp.ensure_dss();
    dss.dsn = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    dss.length = static_cast<std::uint32_t>(rng.uniform_int(1, 1460));
    dss.has_data_ack = rng.chance(0.8);
    dss.data_ack = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    dss.data_fin = rng.chance(0.1);
    dss.has_checksum = rng.chance(0.5);
    dss.checksum = dss_checksum(dss.dsn, dss.length);
  }
  if (rng.chance(0.5)) p.tcp.set_mp_capable(MpCapableOption{1, 2});
  if (rng.chance(0.5)) p.tcp.set_mp_join(MpJoinOption{42, 3, true});
  if (rng.chance(0.5)) p.tcp.set_add_addr(AddAddrOption{IpAddr{9}, 4});
  if (rng.chance(0.5)) p.tcp.set_remove_addr(RemoveAddrOption{IpAddr{9}, 7});
  if (rng.chance(0.5)) p.tcp.set_mp_prio(MpPrioOption{false});
  if (rng.chance(0.5)) p.tcp.set_mp_fail(MpFailOption{123, true});
}

// Field-for-field comparison of a recycled packet against a fresh default
// one (cannot memcmp: padding bytes are not specified after copy-assign).
void expect_packet_is_fresh(const Packet& p, PacketPool* expected_pool) {
  const Packet fresh;
  EXPECT_EQ(p.uid, fresh.uid);
  EXPECT_EQ(p.src, fresh.src);
  EXPECT_EQ(p.dst, fresh.dst);
  EXPECT_EQ(p.payload_bytes, fresh.payload_bytes);
  EXPECT_EQ(p.is_retransmit, fresh.is_retransmit);
  EXPECT_EQ(p.cross_traffic, fresh.cross_traffic);
  EXPECT_EQ(p.first_sent_time.ns(), fresh.first_sent_time.ns());
  EXPECT_EQ(p.enqueue_time.ns(), fresh.enqueue_time.ns());
  EXPECT_EQ(p.origin_pool, expected_pool);
  EXPECT_EQ(p.tcp.src_port, fresh.tcp.src_port);
  EXPECT_EQ(p.tcp.dst_port, fresh.tcp.dst_port);
  EXPECT_EQ(p.tcp.flags, fresh.tcp.flags);
  EXPECT_EQ(p.tcp.seq, fresh.tcp.seq);
  EXPECT_EQ(p.tcp.ack, fresh.tcp.ack);
  EXPECT_EQ(p.tcp.wnd, fresh.tcp.wnd);
  EXPECT_FALSE(p.tcp.has_any_option());
  EXPECT_EQ(p.tcp.dss(), nullptr);
  EXPECT_EQ(p.tcp.mp_capable(), nullptr);
  EXPECT_EQ(p.tcp.mp_join(), nullptr);
  EXPECT_EQ(p.tcp.add_addr(), nullptr);
  EXPECT_EQ(p.tcp.remove_addr(), nullptr);
  EXPECT_EQ(p.tcp.mp_prio(), nullptr);
  EXPECT_EQ(p.tcp.mp_fail(), nullptr);
  EXPECT_TRUE(p.tcp.sack.empty());
  EXPECT_EQ(p.wire_bytes(), fresh.wire_bytes());
  // The presence mask is authoritative, but the value slots must also reset
  // so a recycled packet is indistinguishable from a fresh one even through
  // a stale pointer or a later ensure_dss() (which must hand back zeroes).
  Packet& mut = const_cast<Packet&>(p);
  EXPECT_EQ(mut.tcp.ensure_dss().dsn, 0u);
  EXPECT_EQ(mut.tcp.ensure_dss().length, 0u);
  EXPECT_FALSE(mut.tcp.ensure_dss().has_data_ack);
  EXPECT_FALSE(mut.tcp.ensure_dss().has_checksum);
  mut.tcp.clear_dss();
}

TEST(PacketPoolTest, RecycledPacketMatchesFreshFieldForField) {
  sim::Simulation sim{404};
  PacketPool& pool = sim.service<PacketPool>();
  sim::Rng rng = sim.rng("pool.reuse");
  for (int round = 0; round < 200; ++round) {
    Packet* raw = nullptr;
    {
      PacketPtr p = pool.acquire();
      raw = p.get();
      scribble_packet(*p, rng);
    }  // recycled here
    PacketPtr again = pool.acquire();
    ASSERT_EQ(again.get(), raw) << "freelist should hand back the same slot";
    expect_packet_is_fresh(*again, &pool);
  }
  // One heap allocation total: two acquires per round, all but the first
  // served from the freelist.
  EXPECT_EQ(pool.stats().allocs, 1u);
  EXPECT_EQ(pool.stats().reuses, 399u);
}

TEST(LossTest, NoLossNeverDrops) {
  NoLoss m;
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(m.should_drop());
}

TEST(LossTest, BernoulliMatchesProbability) {
  sim::Simulation sim{3};
  BernoulliLoss m{0.2, sim.rng("loss")};
  int drops = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) drops += m.should_drop() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / kTrials, 0.2, 0.015);
}

TEST(LossTest, GilbertElliottMatchesSteadyState) {
  sim::Simulation sim{3};
  GilbertElliottLoss::Params params{.p_good_to_bad = 0.01,
                                    .p_bad_to_good = 0.2,
                                    .loss_good = 0.005,
                                    .loss_bad = 0.3};
  GilbertElliottLoss m{params, sim.rng("ge")};
  int drops = 0;
  constexpr int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) drops += m.should_drop() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / kTrials, m.steady_state_loss(), 0.004);
}

TEST(LossTest, GilbertElliottIsBursty) {
  // Consecutive drops should be far more common than under i.i.d. loss with
  // the same average rate.
  sim::Simulation sim{5};
  GilbertElliottLoss::Params params{.p_good_to_bad = 0.004,
                                    .p_bad_to_good = 0.25,
                                    .loss_good = 0.001,
                                    .loss_bad = 0.5};
  GilbertElliottLoss m{params, sim.rng("ge")};
  int drops = 0;
  int consecutive = 0;
  bool prev = false;
  constexpr int kTrials = 300000;
  for (int i = 0; i < kTrials; ++i) {
    const bool d = m.should_drop();
    drops += d ? 1 : 0;
    if (d && prev) ++consecutive;
    prev = d;
  }
  const double rate = static_cast<double>(drops) / kTrials;
  const double p_consec = static_cast<double>(consecutive) / drops;
  EXPECT_GT(p_consec, 3 * rate);  // i.i.d. would give ~rate
}

class LinkTest : public ::testing::Test {
 protected:
  sim::Simulation sim{1};
  std::vector<Packet> delivered;
  std::vector<sim::TimePoint> times;

  Link make_link(Link::Config cfg) {
    return Link{sim, cfg, [this](PacketPtr p) {
                  delivered.push_back(*p);  // copy out; the handle recycles
                  times.push_back(sim.now());
                }};
  }

  PacketPtr packet(std::uint32_t payload) {
    return pooled_data_packet(sim, IpAddr{1}, IpAddr{2}, payload);
  }
};

TEST_F(LinkTest, SerializationPlusPropagationDelay) {
  // 1000B payload -> 1040B wire = 8320 bits at 8.32 Mbit/s = 1 ms, +5 ms prop.
  Link link = make_link({.name = "l", .rate_bps = 8.32e6,
                         .prop_delay = sim::Duration::millis(5),
                         .queue_capacity_bytes = 100000});
  link.send(packet(1000));
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_NEAR(times[0].to_millis(), 6.0, 1e-6);
}

TEST_F(LinkTest, BackToBackPacketsSerialize) {
  Link link = make_link({.name = "l", .rate_bps = 8.32e6,
                         .prop_delay = sim::Duration::millis(5),
                         .queue_capacity_bytes = 100000});
  for (int i = 0; i < 3; ++i) link.send(packet(1000));
  sim.run();
  ASSERT_EQ(delivered.size(), 3u);
  EXPECT_NEAR(times[0].to_millis(), 6.0, 1e-6);
  EXPECT_NEAR(times[1].to_millis(), 7.0, 1e-6);
  EXPECT_NEAR(times[2].to_millis(), 8.0, 1e-6);
}

TEST_F(LinkTest, QueueOverflowDropsTail) {
  Link link = make_link({.name = "l", .rate_bps = 1e6,
                         .prop_delay = sim::Duration::millis(1),
                         .queue_capacity_bytes = 3000});
  for (int i = 0; i < 10; ++i) link.send(packet(1000));
  sim.run();
  EXPECT_LT(delivered.size(), 10u);
  EXPECT_GT(link.stats().packets_dropped_queue, 0u);
  EXPECT_EQ(link.stats().packets_dropped_queue + link.stats().packets_delivered, 10u);
}

TEST_F(LinkTest, WireLossDropsButKeepsServing) {
  Link link = make_link({.name = "l", .rate_bps = 1e9,
                         .prop_delay = sim::Duration::millis(1),
                         .queue_capacity_bytes = 1 << 20});
  link.set_loss_model(std::make_unique<BernoulliLoss>(0.5, sim.rng("l")));
  for (int i = 0; i < 2000; ++i) link.send(packet(100));
  sim.run();
  EXPECT_GT(link.stats().packets_dropped_wire, 700u);
  EXPECT_GT(delivered.size(), 700u);
  EXPECT_EQ(link.stats().packets_dropped_wire + delivered.size(), 2000u);
}

TEST_F(LinkTest, ExtraDelayPreservesFifoOrder) {
  // First packet gets +50 ms ARQ stall; second none. Delivery must stay
  // in order (head-of-line blocking), not reorder.
  Link link = make_link({.name = "l", .rate_bps = 1e9,
                         .prop_delay = sim::Duration::millis(1),
                         .queue_capacity_bytes = 1 << 20});
  int count = 0;
  link.set_extra_delay_fn([&count]() {
    return (count++ == 0) ? sim::Duration::millis(50) : sim::Duration::zero();
  });
  PacketPtr a = packet(100);
  a->tcp.seq = 1;
  PacketPtr b = packet(100);
  b->tcp.seq = 2;
  link.send(std::move(a));
  link.send(std::move(b));
  sim.run();
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0].tcp.seq, 1u);
  EXPECT_EQ(delivered[1].tcp.seq, 2u);
  EXPECT_GE(times[1], times[0]);
  EXPECT_GT(times[0].to_millis(), 50.0);
}

/// Never drops; counts its draws.
class CountingLoss final : public LossModel {
 public:
  explicit CountingLoss(int* draws) : draws_{draws} {}
  [[nodiscard]] bool should_drop() override {
    ++*draws_;
    return false;
  }

 private:
  int* draws_;
};

TEST_F(LinkTest, CrossTrafficEndsAtTheWire) {
  // A cross-traffic packet with a +50 ms ARQ stall, then a real packet.
  // The phantom takes its loss and delay draws, is counted and holds the
  // FIFO floor, but is released at the wire: the deliver callback sees only
  // the real packet, and the events are two service completions plus one
  // delivery.
  Link link = make_link({.name = "l", .rate_bps = 1e9,
                         .prop_delay = sim::Duration::millis(1),
                         .queue_capacity_bytes = 1 << 20});
  int loss_draws = 0;
  link.set_loss_model(std::make_unique<CountingLoss>(&loss_draws));
  int delay_draws = 0;
  link.set_extra_delay_fn([&delay_draws]() {
    return (delay_draws++ == 0) ? sim::Duration::millis(50) : sim::Duration::zero();
  });
  PacketPtr phantom = packet(100);
  phantom->cross_traffic = true;
  PacketPtr real = packet(100);
  real->tcp.seq = 7;
  link.send(std::move(phantom));
  link.send(std::move(real));
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_FALSE(delivered[0].cross_traffic);
  EXPECT_EQ(delivered[0].tcp.seq, 7u);
  // The phantom would have arrived after its 1.12 us of airtime + 1 ms
  // propagation + 50 ms stall; unstalled, the real packet would be at ~1 ms.
  const sim::TimePoint phantom_arrival =
      sim::TimePoint::origin() + sim::Duration::from_seconds(140 * 8 / 1e9) +
      sim::Duration::millis(51);
  EXPECT_GE(times[0], phantom_arrival);
  EXPECT_EQ(link.stats().packets_delivered, 2u);
  EXPECT_EQ(loss_draws, 2);
  EXPECT_EQ(delay_draws, 2);
  EXPECT_EQ(sim.events().executed(), 3u);
}

TEST_F(LinkTest, GateDefersServiceStart) {
  Link link = make_link({.name = "l", .rate_bps = 1e9,
                         .prop_delay = sim::Duration::millis(1),
                         .queue_capacity_bytes = 1 << 20});
  link.set_gate_fn([](sim::TimePoint now) {
    return std::max(now, sim::TimePoint::origin() + sim::Duration::millis(300));
  });
  link.send(packet(100));
  sim.run();
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_GT(times[0].to_millis(), 300.0);
}

TEST_F(LinkTest, RateFnConsultedPerPacket) {
  Link link = make_link({.name = "l", .rate_bps = 1e6,
                         .prop_delay = sim::Duration::zero(),
                         .queue_capacity_bytes = 1 << 20});
  int calls = 0;
  link.set_rate_fn([&calls]() {
    ++calls;
    return 1e9;
  });
  for (int i = 0; i < 5; ++i) link.send(packet(100));
  sim.run();
  EXPECT_EQ(calls, 5);
}

TEST(NetworkTest, RoutesViaUplinkBySource) {
  sim::Simulation sim{1};
  Network net{sim};
  std::vector<Packet> at_server;
  net.attach_host(IpAddr{10}, [&](PacketPtr p) { at_server.push_back(*p); });
  Link up{sim, {.name = "up", .rate_bps = 1e6, .prop_delay = sim::Duration::millis(3),
                .queue_capacity_bytes = 1 << 20},
          [&net](PacketPtr p) { net.deliver_local(std::move(p)); }};
  Link down{sim, {.name = "down", .rate_bps = 1e6, .prop_delay = sim::Duration::millis(3),
                  .queue_capacity_bytes = 1 << 20},
            [&net](PacketPtr p) { net.deliver_local(std::move(p)); }};
  net.set_access(IpAddr{1}, &up, &down);

  net.send(pooled_data_packet(sim, IpAddr{1}, IpAddr{10}, 100));
  sim.run();
  ASSERT_EQ(at_server.size(), 1u);
  EXPECT_EQ(up.stats().packets_delivered, 1u);
  EXPECT_EQ(down.stats().packets_delivered, 0u);
}

TEST(NetworkTest, RoutesViaDownlinkByDestination) {
  sim::Simulation sim{1};
  Network net{sim};
  std::vector<Packet> at_client;
  net.attach_host(IpAddr{1}, [&](PacketPtr p) { at_client.push_back(*p); });
  Link up{sim, {.name = "up", .rate_bps = 1e6, .prop_delay = sim::Duration::millis(3),
                .queue_capacity_bytes = 1 << 20},
          [&net](PacketPtr p) { net.deliver_local(std::move(p)); }};
  Link down{sim, {.name = "down", .rate_bps = 1e6, .prop_delay = sim::Duration::millis(3),
                  .queue_capacity_bytes = 1 << 20},
            [&net](PacketPtr p) { net.deliver_local(std::move(p)); }};
  net.set_access(IpAddr{1}, &up, &down);

  net.send(pooled_data_packet(sim, IpAddr{10}, IpAddr{1}, 100));
  sim.run();
  ASSERT_EQ(at_client.size(), 1u);
  EXPECT_EQ(down.stats().packets_delivered, 1u);
}

TEST(NetworkTest, WiredFallbackWithoutAccessLinks) {
  sim::Simulation sim{1};
  Network net{sim};
  std::vector<sim::TimePoint> times;
  net.attach_host(IpAddr{10}, [&](PacketPtr) { times.push_back(sim.now()); });
  net.send(pooled_data_packet(sim, IpAddr{11}, IpAddr{10}, 100));
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0] - sim::TimePoint::origin(), net.wired_delay());
}

TEST(NetworkTest, ObserversSeeSendAndDeliver) {
  sim::Simulation sim{1};
  Network net{sim};
  net.attach_host(IpAddr{10}, [](PacketPtr) {});
  int sends = 0;
  int delivers = 0;
  net.add_observer([&](const TraceEvent& ev) {
    if (ev.kind == TraceEvent::Kind::kSend) ++sends;
    if (ev.kind == TraceEvent::Kind::kDeliver) ++delivers;
  });
  net.send(pooled_data_packet(sim, IpAddr{11}, IpAddr{10}, 100));
  sim.run();
  EXPECT_EQ(sends, 1);
  EXPECT_EQ(delivers, 1);
}

TEST(NetworkTest, UnattachedDestinationIsSilentlyDropped) {
  sim::Simulation sim{1};
  Network net{sim};
  net.send(pooled_data_packet(sim, IpAddr{11}, IpAddr{99}, 100));
  sim.run();  // must not crash
  SUCCEED();
}

TEST(HostTest, DemuxesByFlowKey) {
  sim::Simulation sim{1};
  Network net{sim};
  Host host{sim, net, {IpAddr{1}, IpAddr{2}}};
  int flow_a = 0;
  int listener = 0;
  const FlowKey key{SocketAddr{IpAddr{1}, 2000}, SocketAddr{IpAddr{10}, 1000}};
  host.register_flow(key, [&](PacketPtr) { ++flow_a; });
  host.listen(2000, [&](PacketPtr) { ++listener; });

  net.send(pooled_data_packet(sim, IpAddr{10}, IpAddr{1}, 10));  // ports 1000->2000
  // A different remote port: should hit the listener, not the flow.
  PacketPtr other = pooled_data_packet(sim, IpAddr{10}, IpAddr{1}, 10);
  other->tcp.src_port = 1001;
  net.send(std::move(other));
  sim.run();
  EXPECT_EQ(flow_a, 1);
  EXPECT_EQ(listener, 1);
}

TEST(HostTest, UnmatchedPacketsCounted) {
  sim::Simulation sim{1};
  Network net{sim};
  Host host{sim, net, {IpAddr{1}}};
  net.send(pooled_data_packet(sim, IpAddr{10}, IpAddr{1}, 10));
  sim.run();
  EXPECT_EQ(host.unmatched_packets(), 1u);
}

TEST(HostTest, UnregisterStopsDelivery) {
  sim::Simulation sim{1};
  Network net{sim};
  Host host{sim, net, {IpAddr{1}}};
  int hits = 0;
  const FlowKey key{SocketAddr{IpAddr{1}, 2000}, SocketAddr{IpAddr{10}, 1000}};
  host.register_flow(key, [&](PacketPtr) { ++hits; });
  host.unregister_flow(key);
  net.send(pooled_data_packet(sim, IpAddr{10}, IpAddr{1}, 10));
  sim.run();
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(host.unmatched_packets(), 1u);
}

TEST(HostTest, EphemeralPortsAreUnique) {
  sim::Simulation sim{1};
  Network net{sim};
  Host host{sim, net, {IpAddr{1}}};
  const std::uint16_t a = host.ephemeral_port();
  const std::uint16_t b = host.ephemeral_port();
  EXPECT_NE(a, b);
}

TEST(HostTest, SendStampsUniquePacketIds) {
  sim::Simulation sim{1};
  Network net{sim};
  Host host{sim, net, {IpAddr{1}}};
  std::vector<std::uint64_t> uids;
  net.attach_host(IpAddr{10}, [&](PacketPtr p) { uids.push_back(p->uid); });
  host.send(pooled_data_packet(sim, IpAddr{1}, IpAddr{10}, 10));
  host.send(pooled_data_packet(sim, IpAddr{1}, IpAddr{10}, 10));
  sim.run();
  ASSERT_EQ(uids.size(), 2u);
  EXPECT_NE(uids[0], uids[1]);
  EXPECT_NE(uids[0], 0u);
}

}  // namespace
}  // namespace mpr::net
