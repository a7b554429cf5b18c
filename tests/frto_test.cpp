// F-RTO (RFC 5682, simplified) tests: spurious timeouts caused by delay
// spikes — the signature pathology of the paper's cellular paths — must be
// detected and undone, while genuine loss still falls back to conventional
// timeout recovery.
#include <gtest/gtest.h>

#include <memory>

#include "net/host.h"
#include "net/link.h"
#include "net/network.h"
#include "tcp/endpoint.h"
#include "tcp/listener.h"

namespace mpr::tcp {
namespace {

constexpr net::IpAddr kClientAddr{1};
constexpr net::IpAddr kServerAddr{10};
constexpr std::uint16_t kPort = 8080;

struct Outcome {
  bool completed{false};
  std::uint64_t rexmits{0};
  std::uint64_t timeouts{0};
  double finish_s{0};
};

/// Runs a transfer through a downlink that stalls for `spike` at t=1s
/// (delay spike, no loss — the bufferbloat/ARQ pathology).
Outcome run_with_spike(bool frto, sim::Duration spike, std::uint64_t bytes,
                       double extra_loss = 0.0) {
  sim::Simulation sim{11};
  net::Network network{sim};
  net::Host server{sim, network, {kServerAddr}};
  net::Host client{sim, network, {kClientAddr}};
  auto deliver = [&network](net::PacketPtr p) { network.deliver_local(std::move(p)); };
  net::Link up{sim,
               {.name = "up", .rate_bps = 10e6, .prop_delay = sim::Duration::millis(30),
                .queue_capacity_bytes = 1 << 20},
               deliver};
  net::Link down{sim,
                 {.name = "down", .rate_bps = 10e6, .prop_delay = sim::Duration::millis(30),
                  .queue_capacity_bytes = 1 << 20},
                 deliver};
  network.set_access(kClientAddr, &up, &down);
  // One-shot delay spike: every packet serviced in [1.0s, 1.05s] is held an
  // extra `spike`; FIFO ordering stalls everything behind it too.
  down.set_extra_delay_fn([&sim, spike] {
    const double t = sim.now().to_seconds();
    return (t >= 1.0 && t < 1.05) ? spike : sim::Duration::zero();
  });
  if (extra_loss > 0) {
    down.set_loss_model(std::make_unique<net::BernoulliLoss>(extra_loss, sim.rng("loss")));
  }

  TcpConfig cfg;
  cfg.frto_enabled = frto;

  Outcome out;
  TcpEndpoint* server_ep = nullptr;
  TcpAcceptor acceptor{server, kPort, cfg, [&](TcpEndpoint& ep) {
                         server_ep = &ep;
                         ep.on_data = [&ep, bytes](std::uint64_t, std::uint32_t) {
                           ep.write(bytes);
                         };
                       }};
  TcpEndpoint client_ep{client, net::SocketAddr{kClientAddr, 40000},
                        net::SocketAddr{kServerAddr, kPort}, cfg};
  std::uint64_t got = 0;
  client_ep.on_data = [&](std::uint64_t, std::uint32_t len) {
    got += len;
    if (got >= bytes) out.completed = true;
  };
  client_ep.connect();
  client_ep.write(100);
  sim.run_while([&] { return !out.completed; }, sim.now() + sim::Duration::seconds(120));
  out.finish_s = sim.now().to_seconds();
  if (server_ep != nullptr) {
    out.rexmits = server_ep->metrics().rexmit_packets;
    out.timeouts = server_ep->metrics().timeouts;
  }
  return out;
}

TEST(Frto, SpuriousTimeoutAvoidsRetransmissionBurst) {
  const Outcome off = run_with_spike(false, sim::Duration::millis(1500), 4 << 20);
  const Outcome on = run_with_spike(true, sim::Duration::millis(1500), 4 << 20);
  ASSERT_TRUE(off.completed);
  ASSERT_TRUE(on.completed);
  EXPECT_GE(off.timeouts, 1u) << "the spike must actually fire the RTO";
  EXPECT_GE(on.timeouts, 1u);
  // Without F-RTO the whole flight is retransmitted (go-back-N burst);
  // with it, only the head probe goes out per timeout.
  EXPECT_GT(off.rexmits, 20u);
  EXPECT_LE(on.rexmits, off.rexmits / 4);
}

TEST(Frto, SpuriousTimeoutRecoversFaster) {
  const Outcome off = run_with_spike(false, sim::Duration::millis(1500), 4 << 20);
  const Outcome on = run_with_spike(true, sim::Duration::millis(1500), 4 << 20);
  ASSERT_TRUE(off.completed && on.completed);
  // Restoring cwnd after the spurious episode beats slow-starting from one
  // segment.
  EXPECT_LT(on.finish_s, off.finish_s);
}

TEST(Frto, NoSpikeNoDifference) {
  const Outcome off = run_with_spike(false, sim::Duration::zero(), 1 << 20);
  const Outcome on = run_with_spike(true, sim::Duration::zero(), 1 << 20);
  ASSERT_TRUE(off.completed && on.completed);
  EXPECT_EQ(off.timeouts, 0u);
  EXPECT_EQ(on.timeouts, 0u);
  EXPECT_DOUBLE_EQ(off.finish_s, on.finish_s);
}

TEST(Frto, GenuineLossStillRecovers) {
  // Heavy random loss: F-RTO must not break conventional recovery.
  const Outcome on = run_with_spike(true, sim::Duration::zero(), 2 << 20, 0.05);
  ASSERT_TRUE(on.completed);
  EXPECT_GT(on.rexmits, 0u);
}

TEST(Frto, LossDuringSpikeFallsBackToTimeoutRecovery) {
  // Spike *and* loss: the decisive ACK will not advance past the probe, so
  // F-RTO must declare genuine loss and still complete.
  const Outcome on = run_with_spike(true, sim::Duration::millis(1500), 2 << 20, 0.03);
  ASSERT_TRUE(on.completed);
}

}  // namespace
}  // namespace mpr::tcp
