// Scheduler strategy family tests.
//
// Covers the four pumping-order strategies (minrtt, roundrobin, weighted,
// redundant) at three levels:
//   * direct pumping-order unit tests on live subflows of a paused
//     simulation, including the round-robin regression — a subflow without
//     congestion-window space must never be pumped before one with space,
//   * end-to-end behaviour: weighted shares actually shift the per-path
//     byte split, redundant dispatch duplicates every chunk yet the
//     application still sees every DSN byte exactly once,
//   * a randomized property sweep: >= 100 seeded fault/netem configurations
//     under the redundant scheduler keep exactly-once in-order delivery,
//     cross-checked against the tcptrace-style analyzer (and, in
//     MPR_AUDIT=ON builds, against the armed invariant auditor),
//   * MPR_JOBS=1 vs 8 bit-identity for every scheduler x controller cell,
//   * the `sched` scenario action: parsing, validation and live injection.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <tuple>

#include "analysis/trace_analyzer.h"
#include "app/http.h"
#include "check/audit.h"
#include "core/connection.h"
#include "core/scheduler.h"
#include "experiment/carriers.h"
#include "experiment/run.h"
#include "experiment/series.h"
#include "experiment/testbed.h"
#include "liveness.h"
#include "netem/faults.h"

namespace mpr::core {
namespace {

using experiment::Carrier;
using experiment::PathMode;
using experiment::RunConfig;
using experiment::TestbedConfig;
using netem::FaultSchedule;

// ---------------------------------------------------------------------------
// Strategy registry basics.

TEST(SchedulerNames, RoundTripAndAliases) {
  EXPECT_EQ(scheduler_from_string("minrtt"), SchedulerKind::kMinRtt);
  EXPECT_EQ(scheduler_from_string("rr"), SchedulerKind::kRoundRobin);
  EXPECT_EQ(scheduler_from_string("roundrobin"), SchedulerKind::kRoundRobin);
  EXPECT_EQ(scheduler_from_string("weighted"), SchedulerKind::kWeighted);
  EXPECT_EQ(scheduler_from_string("redundant"), SchedulerKind::kRedundant);
  EXPECT_EQ(scheduler_from_string("lowest-rtt"), std::nullopt);
  EXPECT_EQ(scheduler_from_string(""), std::nullopt);
  for (const SchedulerKind k :
       {SchedulerKind::kMinRtt, SchedulerKind::kRoundRobin, SchedulerKind::kWeighted,
        SchedulerKind::kRedundant}) {
    EXPECT_EQ(scheduler_from_string(to_string(k)), k) << to_string(k);
  }
}

TEST(SchedulerFactory, FlagsAndWeights) {
  const PacketScheduler minrtt{SchedulerKind::kMinRtt};
  EXPECT_FALSE(minrtt.redundant());
  EXPECT_DOUBLE_EQ(minrtt.weight(0), 1.0);

  const PacketScheduler redundant{SchedulerKind::kRedundant};
  EXPECT_TRUE(redundant.redundant());

  const PacketScheduler weighted{SchedulerKind::kWeighted, {2.0, 0.5}};
  EXPECT_FALSE(weighted.redundant());
  EXPECT_DOUBLE_EQ(weighted.weight(0), 2.0);
  EXPECT_DOUBLE_EQ(weighted.weight(1), 0.5);
  EXPECT_DOUBLE_EQ(weighted.weight(2), 1.0);  // unconfigured id

  // Degenerate shares are sanitized to 1.0, never propagated as 0 / NaN.
  const PacketScheduler bad{SchedulerKind::kWeighted, {-3.0, 0.0}};
  EXPECT_DOUBLE_EQ(bad.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(bad.weight(1), 1.0);
}

// ---------------------------------------------------------------------------
// Pumping-order unit tests on live subflows: establish a 2-path connection,
// pause mid-transfer, and exercise order() directly.

class PausedTransfer {
 public:
  explicit PausedTransfer(std::uint64_t seed = 3) {
    TestbedConfig tb_cfg;
    tb_cfg.seed = seed;
    tb_ = std::make_unique<experiment::Testbed>(tb_cfg);
    MptcpConfig cfg;
    server_ = std::make_unique<app::MptcpHttpServer>(
        tb_->server(), experiment::kHttpPort, cfg, std::vector<net::IpAddr>{},
        [](std::uint64_t) { return 64ull << 20; });
    client_ = std::make_unique<app::MptcpHttpClient>(
        tb_->client(), cfg,
        std::vector<net::IpAddr>{experiment::kClientWifiAddr, experiment::kClientCellAddr},
        net::SocketAddr{experiment::kServerAddr1, experiment::kHttpPort});
    client_->get(64ull << 20, [](const app::FetchResult&) {});
    // Run until both subflows are established and carrying data, then stop
    // mid-flight (the 64 MB object takes far longer than 1.5 s) so
    // cwnd/in-flight state is realistic.
    tb_->sim().run_for(sim::Duration::from_seconds(1.5));
  }

  /// The server-side connection: that end is the data sender whose
  /// scheduler state is interesting mid-download.
  [[nodiscard]] MptcpConnection& sender() { return *server_->connections().front(); }

 private:
  std::unique_ptr<experiment::Testbed> tb_;
  std::unique_ptr<app::MptcpHttpServer> server_;
  std::unique_ptr<app::MptcpHttpClient> client_;
};

TEST(PumpOrder, MinRttSortsBySmoothedRtt) {
  PausedTransfer t;
  std::vector<MptcpSubflow*> order = t.sender().subflows();
  ASSERT_GE(order.size(), 2u);
  PacketScheduler{SchedulerKind::kMinRtt}.order(order);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(order[i - 1]->srtt().ns(), order[i]->srtt().ns()) << i;
  }
}

TEST(PumpOrder, RoundRobinSortsByScheduledBytesWithinSpaceClass) {
  PausedTransfer t;
  std::vector<MptcpSubflow*> order = t.sender().subflows();
  ASSERT_GE(order.size(), 2u);
  PacketScheduler{SchedulerKind::kRoundRobin}.order(order);
  bool seen_no_space = false;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (!order[i]->has_window_space()) {
      seen_no_space = true;
    } else {
      EXPECT_FALSE(seen_no_space) << "subflow with cwnd space ordered after one without";
    }
    if (i > 0 && order[i - 1]->has_window_space() == order[i]->has_window_space()) {
      EXPECT_LE(order[i - 1]->scheduled_bytes(), order[i]->scheduled_bytes()) << i;
    }
  }
}

// Regression: the old round-robin key was scheduled_bytes alone, so a
// cwnd-exhausted subflow with the smaller deficit kept winning the pump
// order and soaked up chunks it could not send. The space partition must
// push it to the back.
TEST(PumpOrder, RoundRobinSkipsCwndExhaustedSubflow) {
  PausedTransfer t;
  std::vector<MptcpSubflow*> subflows = t.sender().subflows();
  ASSERT_GE(subflows.size(), 2u);

  // Exhaust the busiest subflow's window (clamp cwnd to one MSS below its
  // in-flight bytes) and guarantee the others have space.
  MptcpSubflow* starved = subflows.front();
  for (MptcpSubflow* sf : subflows) {
    if (sf->bytes_in_flight() > starved->bytes_in_flight()) starved = sf;
  }
  ASSERT_GT(starved->bytes_in_flight(), 0u)
      << "paused transfer must have data in flight for this regression test";
  for (MptcpSubflow* sf : subflows) {
    if (sf != starved) sf->set_cwnd_bytes(64.0 * 1024 * 1024);
  }
  starved->set_cwnd_bytes(1.0);  // clamps to 1 MSS, < bytes_in_flight
  ASSERT_FALSE(starved->has_window_space());

  std::vector<MptcpSubflow*> order = subflows;
  PacketScheduler{SchedulerKind::kRoundRobin}.order(order);
  EXPECT_EQ(order.back(), starved)
      << "cwnd-exhausted subflow must drop to the back of the pump order";

  // Weighted applies the same partition.
  std::vector<MptcpSubflow*> worder = subflows;
  PacketScheduler{SchedulerKind::kWeighted, {1.0, 1.0}}.order(worder);
  EXPECT_EQ(worder.back(), starved);
}

TEST(PumpOrder, WeightedDividesDeficitByShare) {
  PausedTransfer t;
  std::vector<MptcpSubflow*> order = t.sender().subflows();
  ASSERT_GE(order.size(), 2u);
  const std::vector<double> weights{1.0, 8.0};
  const PacketScheduler sched{SchedulerKind::kWeighted, weights};
  sched.order(order);
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i - 1]->has_window_space() != order[i]->has_window_space()) continue;
    const double a = static_cast<double>(order[i - 1]->scheduled_bytes()) /
                     sched.weight(order[i - 1]->id());
    const double b =
        static_cast<double>(order[i]->scheduled_bytes()) / sched.weight(order[i]->id());
    EXPECT_LE(a, b) << i;
  }
}

TEST(PumpOrder, RedundantUsesRttOrder) {
  PausedTransfer t;
  std::vector<MptcpSubflow*> order = t.sender().subflows();
  ASSERT_GE(order.size(), 2u);
  PacketScheduler{SchedulerKind::kRedundant}.order(order);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(order[i - 1]->srtt().ns(), order[i]->srtt().ns()) << i;
  }
}

// ---------------------------------------------------------------------------
// End-to-end harness: the measured run without its ping warm-up, with
// scheduler knobs.

struct Outcome {
  bool completed{false};
  bool dsn_in_order{true};
  std::uint64_t conn_delivered{0};
  std::uint64_t next_dsn{0};
  std::uint64_t duplicates{0};
  std::uint64_t reinjections{0};      // client + server
  std::uint64_t redundant_chunks{0};  // duplicates queued by the scheduler
  std::uint64_t wifi_bytes{0};
  std::uint64_t cell_bytes{0};
  double finish_s{0};
  std::vector<analysis::FlowReport> flows;  // of the packet capture
  std::size_t half_open{0};                 // see testing_util::half_open_subflows
};

struct Case {
  SchedulerKind scheduler{SchedulerKind::kMinRtt};
  std::vector<double> weights;
  CcKind cc{CcKind::kCoupled};
  std::uint64_t bytes{1ull << 20};
  std::uint64_t seed{11};
  FaultSchedule faults;
  bool capture_trace{false};
  bool hotspot{false};  // public hotspot WiFi instead of home WiFi
  double deadline_s{300};
};

Outcome run_case(const Case& c) {
  TestbedConfig tb_cfg;
  tb_cfg.seed = c.seed;
  tb_cfg.capture_trace = c.capture_trace;
  if (c.hotspot) tb_cfg.wifi = netem::wifi_hotspot();
  RunConfig rc;
  rc.cc = c.cc;
  rc.scheduler = c.scheduler;
  rc.scheduler_weights = c.weights;
  rc.file_bytes = c.bytes;
  rc.ping_warmup = false;
  rc.timeout = sim::Duration::from_seconds(c.deadline_s);
  rc.faults = c.faults;
  experiment::Session session{tb_cfg, rc};
  MptcpConnection& client = *session.client_connection();

  Outcome out;
  auto inner = client.on_data;
  client.on_data = [&, inner](std::uint64_t dsn, std::uint32_t len) {
    if (dsn != out.next_dsn) out.dsn_in_order = false;
    out.next_dsn = dsn + len;
    if (inner) inner(dsn, len);
  };
  out.completed = session.run().completed;

  out.finish_s = session.testbed().sim().now().to_seconds();
  out.conn_delivered = client.rx().delivered_bytes();
  out.duplicates = client.rx().duplicate_packets();
  out.reinjections = client.reinjected_chunks();
  out.redundant_chunks = client.redundant_chunks();
  for (MptcpConnection* conn : session.mptcp_server()->connections()) {
    out.reinjections += conn->reinjected_chunks();
    out.redundant_chunks += conn->redundant_chunks();
  }
  for (const MptcpSubflow* sf : client.subflows()) {
    if (sf->local().addr == experiment::kClientWifiAddr) {
      out.wifi_bytes += sf->metrics().bytes_received;
    } else {
      out.cell_bytes += sf->metrics().bytes_received;
    }
  }
  if (const analysis::PacketTrace* trace = session.testbed().trace()) {
    out.flows = analysis::TcptraceAnalyzer{*trace}.flows();
    out.half_open = testing_util::half_open_subflows(session);
  }
  return out;
}

TEST(WeightedE2E, SharesShiftThePerPathByteSplit) {
  Case favour_wifi;
  favour_wifi.scheduler = SchedulerKind::kWeighted;
  favour_wifi.weights = {6.0, 1.0};  // subflow 0 = WiFi (initial), 1 = cellular
  favour_wifi.bytes = 2ull << 20;
  Case favour_cell = favour_wifi;
  favour_cell.weights = {1.0, 6.0};

  const Outcome wifi_heavy = run_case(favour_wifi);
  const Outcome cell_heavy = run_case(favour_cell);
  ASSERT_TRUE(wifi_heavy.completed);
  ASSERT_TRUE(cell_heavy.completed);
  EXPECT_EQ(wifi_heavy.conn_delivered, favour_wifi.bytes);
  EXPECT_EQ(cell_heavy.conn_delivered, favour_cell.bytes);
  EXPECT_TRUE(wifi_heavy.dsn_in_order);
  EXPECT_TRUE(cell_heavy.dsn_in_order);

  const auto cell_frac = [](const Outcome& o) {
    return static_cast<double>(o.cell_bytes) /
           static_cast<double>(o.wifi_bytes + o.cell_bytes);
  };
  // The share knob must actually steer bytes: favouring cellular 6:1 gives
  // it a strictly larger fraction than favouring WiFi 6:1.
  EXPECT_GT(cell_frac(cell_heavy), cell_frac(wifi_heavy) + 0.2);
}

TEST(RedundantE2E, DuplicatesEveryChunkYetDeliversExactlyOnce) {
  Case c;
  c.scheduler = SchedulerKind::kRedundant;
  c.bytes = 1ull << 20;
  const Outcome out = run_case(c);
  ASSERT_TRUE(out.completed);
  EXPECT_TRUE(out.dsn_in_order);
  EXPECT_EQ(out.conn_delivered, c.bytes);
  EXPECT_EQ(out.next_dsn, c.bytes);
  // Redundant dispatch really happened: chunks were duplicated onto the
  // second path and the receiver absorbed the losing copies.
  EXPECT_GT(out.redundant_chunks, 0u);
  EXPECT_GT(out.duplicates, 0u);
}

TEST(RedundantE2E, SurvivesWifiBlackoutWithoutRtoStall) {
  // Every chunk already rides both paths, so a WiFi blackout costs no
  // reinjection round-trip: the cellular copy delivers the stranded DSNs.
  Case c;
  c.scheduler = SchedulerKind::kRedundant;
  c.bytes = 2ull << 20;
  c.faults.outage(1.0, "wifi").restore(6.0, "wifi");
  const Outcome out = run_case(c);
  ASSERT_TRUE(out.completed);
  EXPECT_TRUE(out.dsn_in_order);
  EXPECT_EQ(out.conn_delivered, c.bytes);
}

TEST(RoundRobinE2E, OutageDoesNotStrandChunksOnTheDeadPath) {
  // Regression companion to PumpOrder.RoundRobinSkipsCwndExhaustedSubflow:
  // during the blackout the WiFi subflow has no usable window, so fresh
  // chunks must flow to cellular instead of queueing behind the dead path.
  Case c;
  c.scheduler = SchedulerKind::kRoundRobin;
  c.bytes = 2ull << 20;
  c.faults.outage(1.0, "wifi").restore(8.0, "wifi");
  const Outcome out = run_case(c);
  ASSERT_TRUE(out.completed);
  EXPECT_TRUE(out.dsn_in_order);
  EXPECT_EQ(out.conn_delivered, c.bytes);
}

TEST(SchedulerSwitch, MidRunSwitchKeepsExactlyOnceDelivery) {
  Case c;
  c.scheduler = SchedulerKind::kMinRtt;
  c.bytes = 4ull << 20;
  c.faults.scheduler_change(0.5, "weighted", {1.0, 3.0})
      .scheduler_change(1.5, "redundant")
      .scheduler_change(2.5, "rr");
  const Outcome out = run_case(c);
  ASSERT_TRUE(out.completed);
  EXPECT_TRUE(out.dsn_in_order);
  EXPECT_EQ(out.conn_delivered, c.bytes);
  EXPECT_EQ(out.next_dsn, c.bytes);
  // The redundant interlude queued at least some duplicates.
  EXPECT_GT(out.redundant_chunks, 0u);
}

// ---------------------------------------------------------------------------
// Randomized property sweep: the redundant scheduler must never
// double-deliver a DSN byte, across >= 100 seeded fault/netem
// configurations, cross-checked against the packet capture.

FaultSchedule random_schedule(std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  std::uniform_real_distribution<double> when{0.3, 5.0};
  std::uniform_real_distribution<double> frac{0.0, 1.0};
  FaultSchedule s;
  if (rng() % 2 == 0) {
    const double t = when(rng);
    s.outage(t, "wifi").restore(t + 0.3 + 2.0 * frac(rng), "wifi");
  }
  if (rng() % 2 == 0) {
    const double lt = when(rng);
    s.burst_loss(lt, "wifi",
                 {.p_good_to_bad = 0.05 + 0.2 * frac(rng),
                  .p_bad_to_good = 0.2 + 0.3 * frac(rng),
                  .loss_good = 0.01 * frac(rng),
                  .loss_bad = 0.3 + 0.4 * frac(rng)})
        .loss_clear(lt + 0.5 + 2.0 * frac(rng), "wifi");
  }
  if (rng() % 2 == 0) {
    const double rt = when(rng);
    s.rate_scale(rt, "cell", 0.1 + 0.4 * frac(rng)).rate_scale(rt + 1.5, "cell", 1.0);
  }
  const double dt = when(rng);
  s.delay_add(dt, "wifi", 10.0 + 120.0 * frac(rng)).delay_add(dt + 1.5, "wifi", 0.0);
  // Occasionally flap the scheduler itself mid-run.
  if (rng() % 4 == 0) {
    s.scheduler_change(when(rng), "minrtt").scheduler_change(5.5, "redundant");
  }
  // WiFi goes away and comes back once the connection is up (an ifdown
  // during the MP_CAPABLE handshake fails the connection by design): a
  // REMOVE_ADDR, then a re-join under loss.
  const double down = 1.5 + frac(rng);
  s.iface_down(down, "wifi").iface_up(down + 0.2 + 0.8 * frac(rng), "wifi");
  return s;
}

// Over hotspot WiFi, 8 MB each, so the re-join above happens mid-download
// and its liveness is checked too.
TEST(RedundantProperty, NeverDoubleDeliversADsnByteAcross100Configs) {
  const std::uint64_t violations_before = check::violations_total();
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Case c;
    c.scheduler = SchedulerKind::kRedundant;
    c.cc = (seed % 4 == 0)   ? CcKind::kReno
           : (seed % 4 == 1) ? CcKind::kCoupled
           : (seed % 4 == 2) ? CcKind::kOlia
                             : CcKind::kVegas;
    c.bytes = 8ull << 20;
    c.seed = 1000 + seed;
    c.faults = random_schedule(seed);
    c.capture_trace = true;
    c.hotspot = true;
    c.deadline_s = 120;
    const Outcome out = run_case(c);

    ASSERT_TRUE(out.completed) << "seed=" << seed;
    EXPECT_EQ(out.half_open, 0u) << "seed=" << seed;
    // Exactly-once: the app saw every byte once, in DSN order, and nothing
    // past the object.
    EXPECT_TRUE(out.dsn_in_order) << "seed=" << seed;
    EXPECT_EQ(out.conn_delivered, c.bytes) << "seed=" << seed;
    EXPECT_EQ(out.next_dsn, c.bytes) << "seed=" << seed;

    // Cross-check against the tcptrace-style analyzer: wire-level payload
    // covers the object at least once; the overshoot is explained by
    // scheduler duplicates, RTO reinjections and subflow retransmissions.
    ASSERT_FALSE(out.flows.empty());
    std::uint64_t trace_bytes = 0;
    std::uint64_t trace_rexmit = 0;
    for (const analysis::FlowReport& f : out.flows) {
      const bool to_client = f.flow.dst.addr == experiment::kClientWifiAddr ||
                             f.flow.dst.addr == experiment::kClientCellAddr;
      if (!to_client || f.flow.src.addr != experiment::kServerAddr1) continue;
      trace_bytes += f.bytes_delivered;
      trace_rexmit += f.retransmitted_packets;
    }
    EXPECT_GE(trace_bytes, c.bytes) << "seed=" << seed;
    constexpr std::uint64_t kMss = 1400;
    EXPECT_LE(trace_bytes,
              c.bytes + (out.redundant_chunks + out.reinjections + trace_rexmit + 64) * kMss)
        << "seed=" << seed << ": more payload on the wire than duplication accounts for";
  }
  // In MPR_AUDIT builds every one of those runs executed with the DSN /
  // scheduler / CC checkers armed (throwing handler): zero new violations.
  EXPECT_EQ(check::violations_total(), violations_before);
}

// ---------------------------------------------------------------------------
// Determinism: every scheduler x controller cell must be bit-identical when
// the rep farm runs on 1 worker vs 8.

using DetParams = std::tuple<SchedulerKind, CcKind>;

class SchedulerDeterminism : public ::testing::TestWithParam<DetParams> {};

TEST_P(SchedulerDeterminism, BitIdenticalAcrossJobCounts) {
  const auto [sched, cc] = GetParam();
  TestbedConfig tb;
  RunConfig rc;
  rc.mode = PathMode::kMptcp2;
  rc.cc = cc;
  rc.scheduler = sched;
  if (sched == SchedulerKind::kWeighted) rc.scheduler_weights = {2.0, 1.0};
  rc.file_bytes = 96 << 10;
  const auto serial = experiment::run_series(tb, rc, 4, 77, /*jobs=*/1);
  const auto parallel = experiment::run_series(tb, rc, 4, 77, /*jobs=*/8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const experiment::RunResult& a = serial[i];
    const experiment::RunResult& b = parallel[i];
    ASSERT_TRUE(a.completed) << i;
    EXPECT_EQ(a.download_time_s, b.download_time_s) << i;
    EXPECT_EQ(a.delivered_bytes, b.delivered_bytes) << i;
    EXPECT_EQ(a.reinjections, b.reinjections) << i;
    EXPECT_EQ(a.wifi.bytes_received, b.wifi.bytes_received) << i;
    EXPECT_EQ(a.cellular.bytes_received, b.cellular.bytes_received) << i;
    EXPECT_EQ(a.sim_stats.events_executed, b.sim_stats.events_executed) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, SchedulerDeterminism,
    ::testing::Combine(::testing::Values(SchedulerKind::kMinRtt, SchedulerKind::kRoundRobin,
                                         SchedulerKind::kWeighted, SchedulerKind::kRedundant),
                       ::testing::Values(CcKind::kReno, CcKind::kCoupled, CcKind::kOlia,
                                         CcKind::kVegas)),
    [](const ::testing::TestParamInfo<DetParams>& info) {
      return to_string(std::get<0>(info.param)) + "_" + to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// The `sched` scenario action.

TEST(SchedScenario, ParsesNameAndWeights) {
  std::istringstream in{
      "5.0  conn sched weighted 2 1\n"
      "15.0 conn sched redundant\n"
      "20.0 conn sched rr\n"};
  std::string error;
  const FaultSchedule s = FaultSchedule::parse(in, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.events()[0].kind, netem::FaultEvent::Kind::kScheduler);
  EXPECT_EQ(s.events()[0].arg, "weighted");
  EXPECT_EQ(s.events()[0].weights, (std::vector<double>{2.0, 1.0}));
  EXPECT_EQ(s.events()[1].arg, "redundant");
  EXPECT_TRUE(s.events()[1].weights.empty());
  // Connection-level events never count as unknown links.
  EXPECT_TRUE(s.unknown_links({"wifi", "cell"}).empty());
}

TEST(SchedScenario, RejectsMalformedLines) {
  const auto expect_error = [](const char* text) {
    std::istringstream in{text};
    std::string error;
    const FaultSchedule s = FaultSchedule::parse(in, &error);
    EXPECT_FALSE(error.empty()) << text;
    EXPECT_TRUE(s.empty());
  };
  expect_error("5.0 wifi sched rr\n");             // not on the conn pseudo-link
  expect_error("5.0 conn sched fancy\n");          // unknown strategy name
  expect_error("5.0 conn sched weighted 2 -1\n");  // non-positive share
  expect_error("5.0 conn sched rr 2 1\n");         // weights on a non-weighted strategy
  expect_error("5.0 conn sched\n");                // missing name
}

TEST(SchedScenario, InjectorFiresTheCallback) {
  TestbedConfig tb_cfg;
  experiment::Testbed tb{tb_cfg};
  netem::FaultInjector injector{tb.sim()};
  injector.bind("wifi", &tb.wifi_access());
  injector.bind("cell", &tb.cell_access());
  std::vector<std::pair<std::string, std::vector<double>>> seen;
  injector.on_scheduler_change = [&seen](const std::string& name,
                                         const std::vector<double>& weights) {
    seen.emplace_back(name, weights);
  };
  FaultSchedule s;
  s.scheduler_change(0.5, "weighted", {3.0, 1.0}).scheduler_change(1.0, "minrtt");
  injector.install(s);
  tb.sim().run_for(sim::Duration::seconds(2));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, "weighted");
  EXPECT_EQ(seen[0].second, (std::vector<double>{3.0, 1.0}));
  EXPECT_EQ(seen[1].first, "minrtt");
  EXPECT_EQ(injector.applied_events(), 2u);
  EXPECT_EQ(injector.unmatched_events(), 0u);
}

}  // namespace
}  // namespace mpr::core
