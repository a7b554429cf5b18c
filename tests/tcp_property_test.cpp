// Property tests for the TCP stack: parameterized sweeps over path rate,
// delay, loss and object size assert the invariants that must hold for
// every combination — completion, exact in-order delivery, metric
// consistency, and physical bounds on RTT samples.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

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

struct TransferOutcome {
  bool completed{false};
  std::uint64_t delivered{0};
  bool in_order{true};
  FlowMetrics server_metrics;
  FlowMetrics client_metrics;
  std::uint64_t link_offered{0};
  std::uint64_t link_delivered{0};
  std::uint64_t link_dropped{0};
  double min_rtt_ms{1e9};
};

TransferOutcome run_transfer(double rate_mbps, int owd_ms, double loss,
                             std::uint64_t bytes, std::uint64_t seed) {
  sim::Simulation sim{seed};
  net::Network network{sim};
  net::Host server{sim, network, {kServerAddr}};
  net::Host client{sim, network, {kClientAddr}};
  auto deliver = [&network](net::PacketPtr p) { network.deliver_local(std::move(p)); };
  net::Link up{sim,
               {.name = "up", .rate_bps = rate_mbps * 1e6,
                .prop_delay = sim::Duration::millis(owd_ms),
                .queue_capacity_bytes = 1 << 20},
               deliver};
  net::Link down{sim,
                 {.name = "down", .rate_bps = rate_mbps * 1e6,
                  .prop_delay = sim::Duration::millis(owd_ms),
                  .queue_capacity_bytes = 1 << 20},
                 deliver};
  network.set_access(kClientAddr, &up, &down);
  if (loss > 0) {
    down.set_loss_model(std::make_unique<net::BernoulliLoss>(loss, sim.rng("loss")));
  }

  TransferOutcome out;
  TcpEndpoint* server_ep = nullptr;
  TcpAcceptor acceptor{server, kPort, TcpConfig{}, [&](TcpEndpoint& ep) {
                         server_ep = &ep;
                         ep.on_data = [&ep, bytes](std::uint64_t, std::uint32_t) {
                           ep.write(bytes);
                         };
                       }};
  TcpEndpoint client_ep{client, net::SocketAddr{kClientAddr, 40000},
                        net::SocketAddr{kServerAddr, kPort}, TcpConfig{}};
  std::uint64_t next_offset = 0;
  client_ep.on_data = [&](std::uint64_t offset, std::uint32_t len) {
    if (offset != next_offset) out.in_order = false;
    next_offset = offset + len;
    out.delivered += len;
    if (out.delivered >= bytes) out.completed = true;
  };
  client_ep.connect();
  client_ep.write(100);
  sim.run_while([&] { return !out.completed; }, sim.now() + sim::Duration::seconds(600));

  if (server_ep != nullptr) {
    out.server_metrics = server_ep->metrics();
    for (const sim::Duration d : server_ep->metrics().rtt_samples) {
      out.min_rtt_ms = std::min(out.min_rtt_ms, d.to_millis());
    }
  }
  out.client_metrics = client_ep.metrics();
  out.link_offered = down.stats().packets_offered;
  out.link_delivered = down.stats().packets_delivered;
  out.link_dropped =
      down.stats().packets_dropped_queue + down.stats().packets_dropped_wire;
  return out;
}

// ---------------------------------------------------------------------------
// Sweep: rate x delay x loss, fixed 300 KB object.

using PathParams = std::tuple<double /*rate_mbps*/, int /*owd_ms*/, double /*loss*/>;

class TcpPathSweep : public ::testing::TestWithParam<PathParams> {};

TEST_P(TcpPathSweep, TransferCompletesExactlyAndInOrder) {
  const auto [rate, owd, loss] = GetParam();
  const TransferOutcome out = run_transfer(rate, owd, loss, 300 * 1024, 99);
  ASSERT_TRUE(out.completed) << "rate=" << rate << " owd=" << owd << " loss=" << loss;
  EXPECT_EQ(out.delivered, 300u * 1024);
  EXPECT_TRUE(out.in_order);
  EXPECT_EQ(out.client_metrics.bytes_received, 300u * 1024);
}

TEST_P(TcpPathSweep, MetricsAreConsistent) {
  const auto [rate, owd, loss] = GetParam();
  const TransferOutcome out = run_transfer(rate, owd, loss, 300 * 1024, 100);
  ASSERT_TRUE(out.completed);
  // Sent payload >= object size; rexmits never exceed total sends.
  EXPECT_GE(out.server_metrics.bytes_sent, 300u * 1024);
  EXPECT_LE(out.server_metrics.rexmit_packets, out.server_metrics.data_packets_sent);
  // Loss metric is bounded by a generous multiple of the injected rate.
  // Recovery overhead can far exceed raw wire loss on long-RTT paths: an
  // RTO retransmits the whole marked flight (go-back-N), which is exactly
  // the retransmission-rate amplification the paper's §3.3 metric captures.
  if (loss == 0.0) {
    EXPECT_EQ(out.server_metrics.rexmit_packets, 0u);
  } else {
    EXPECT_GT(out.server_metrics.rexmit_packets, 0u);
    EXPECT_LT(out.server_metrics.loss_rate(), loss * 20 + 0.05);
  }
}

TEST_P(TcpPathSweep, RttSamplesRespectPhysicalFloor) {
  const auto [rate, owd, loss] = GetParam();
  const TransferOutcome out = run_transfer(rate, owd, loss, 300 * 1024, 101);
  ASSERT_TRUE(out.completed);
  EXPECT_GE(out.min_rtt_ms, 2.0 * owd - 0.01);
}

TEST_P(TcpPathSweep, LinkConservesPackets) {
  const auto [rate, owd, loss] = GetParam();
  const TransferOutcome out = run_transfer(rate, owd, loss, 300 * 1024, 102);
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.link_offered, out.link_delivered + out.link_dropped);
}

INSTANTIATE_TEST_SUITE_P(
    RateDelayLoss, TcpPathSweep,
    ::testing::Combine(::testing::Values(1.0, 10.0, 100.0),       // Mbit/s
                       ::testing::Values(5, 40, 150),             // ms one-way
                       ::testing::Values(0.0, 0.01, 0.05)),       // wire loss
    [](const ::testing::TestParamInfo<PathParams>& info) {
      return "r" + std::to_string(static_cast<int>(std::get<0>(info.param))) + "_d" +
             std::to_string(std::get<1>(info.param)) + "_l" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 100));
    });

// ---------------------------------------------------------------------------
// Sweep: object sizes (the paper's full range) on a moderately lossy path.

class TcpSizeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcpSizeSweep, AllPaperSizesComplete) {
  const std::uint64_t bytes = GetParam();
  const TransferOutcome out = run_transfer(20.0, 15, 0.015, bytes, 103);
  ASSERT_TRUE(out.completed) << bytes;
  EXPECT_EQ(out.delivered, bytes);
  EXPECT_TRUE(out.in_order);
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, TcpSizeSweep,
                         ::testing::Values(8ull << 10, 64ull << 10, 512ull << 10,
                                           2ull << 20, 4ull << 20, 8ull << 20),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "b" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Sweep: configuration space (ssthresh, F-RTO on/off).

using ConfigParams = std::tuple<std::uint64_t /*ssthresh*/, bool /*frto*/>;

class TcpConfigSweep : public ::testing::TestWithParam<ConfigParams> {};

TEST_P(TcpConfigSweep, LossyTransferCompletesUnderAnyConfig) {
  const auto [ssthresh, frto] = GetParam();
  sim::Simulation sim{55};
  net::Network network{sim};
  net::Host server{sim, network, {kServerAddr}};
  net::Host client{sim, network, {kClientAddr}};
  auto deliver = [&network](net::PacketPtr p) { network.deliver_local(std::move(p)); };
  net::Link up{sim,
               {.name = "up", .rate_bps = 20e6, .prop_delay = sim::Duration::millis(20),
                .queue_capacity_bytes = 1 << 20},
               deliver};
  net::Link down{sim,
                 {.name = "down", .rate_bps = 20e6, .prop_delay = sim::Duration::millis(20),
                  .queue_capacity_bytes = 1 << 20},
                 deliver};
  network.set_access(kClientAddr, &up, &down);
  down.set_loss_model(std::make_unique<net::BernoulliLoss>(0.02, sim.rng("loss")));

  TcpConfig cfg;
  cfg.initial_ssthresh = ssthresh;
  cfg.frto_enabled = frto;

  bool done = false;
  TcpAcceptor acceptor{server, kPort, cfg, [&](TcpEndpoint& ep) {
                         ep.on_data = [&ep](std::uint64_t, std::uint32_t) {
                           ep.write(1 << 20);
                         };
                       }};
  TcpEndpoint client_ep{client, net::SocketAddr{kClientAddr, 40000},
                        net::SocketAddr{kServerAddr, kPort}, cfg};
  std::uint64_t got = 0;
  client_ep.on_data = [&](std::uint64_t, std::uint32_t len) {
    got += len;
    if (got >= (1u << 20)) done = true;
  };
  client_ep.connect();
  client_ep.write(100);
  sim.run_while([&] { return !done; }, sim.now() + sim::Duration::seconds(300));
  EXPECT_TRUE(done) << "ssthresh=" << ssthresh << " frto=" << frto;
  EXPECT_EQ(got, 1u << 20);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TcpConfigSweep,
    ::testing::Combine(::testing::Values(std::uint64_t{64 * 1024}, kInfiniteSsthresh),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<ConfigParams>& info) {
      return std::string(std::get<0>(info.param) == kInfiniteSsthresh ? "inf" : "s64k") +
             (std::get<1>(info.param) ? "_frto" : "_nofrto");
    });

}  // namespace
}  // namespace mpr::tcp
