// Property tests for MPTCP: parameterized sweeps over controller,
// scheduler, path count, establishment mode and path asymmetry assert the
// connection-level invariants for every combination:
//   * the download completes and delivers exactly the requested bytes,
//   * delivery to the application is in DSN order with no gaps,
//   * subflow-level deliveries account for every connection-level byte,
//   * the reorder buffer never exceeds its capacity,
//   * one OFO sample is recorded per delivered data packet,
//   * runs are bit-for-bit deterministic given the seed.
#include <gtest/gtest.h>

#include <tuple>

#include "core/connection.h"
#include "experiment/carriers.h"
#include "experiment/run.h"

namespace mpr::core {
namespace {

using experiment::Carrier;
using experiment::PathMode;
using experiment::RunConfig;
using experiment::TestbedConfig;

struct Outcome {
  bool completed{false};
  std::uint64_t conn_delivered{0};
  bool dsn_in_order{true};
  std::uint64_t subflow_delivered_sum{0};
  std::uint64_t max_buffered{0};
  std::size_t ofo_samples{0};
  std::uint64_t duplicates{0};
  double download_s{0};
};

Outcome run_one(Carrier carrier, PathMode mode, CcKind cc, SchedulerKind sched,
                bool simsyn, std::uint64_t bytes, std::uint64_t seed) {
  TestbedConfig tb_cfg;
  tb_cfg.seed = seed;
  tb_cfg.cellular = experiment::carrier_profile(carrier);
  RunConfig rc;
  rc.mode = mode;
  rc.cc = cc;
  rc.scheduler = sched;
  rc.simultaneous_syns = simsyn;
  rc.file_bytes = bytes;
  rc.ping_warmup = false;
  rc.timeout = sim::Duration::seconds(900);
  experiment::Session session{tb_cfg, rc};
  MptcpConnection& client = *session.client_connection();

  Outcome out;
  std::uint64_t next = 0;
  auto inner = client.on_data;
  client.on_data = [&, inner](std::uint64_t dsn, std::uint32_t len) {
    if (dsn != next) out.dsn_in_order = false;
    next = dsn + len;
    if (inner) inner(dsn, len);
  };
  const experiment::RunResult r = session.run();

  out.completed = r.completed;
  out.download_s = r.completed ? r.download_time_s : -1;
  const ReorderBuffer& rx = client.rx();
  out.conn_delivered = rx.delivered_bytes();
  out.max_buffered = rx.max_buffered_bytes();
  out.ofo_samples = rx.ofo_samples().size();
  out.duplicates = rx.duplicate_packets();
  for (const MptcpSubflow* sf : client.subflows()) {
    out.subflow_delivered_sum += sf->metrics().bytes_received;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Controller x scheduler x path-count sweep on the stable LTE profile.

using MpParams = std::tuple<CcKind, SchedulerKind, PathMode, bool /*simsyn*/>;

class MptcpConfigSweep : public ::testing::TestWithParam<MpParams> {};

TEST_P(MptcpConfigSweep, DeliversExactlyInDsnOrder) {
  const auto [cc, sched, mode, simsyn] = GetParam();
  const Outcome out = run_one(Carrier::kAtt, mode, cc, sched, simsyn, 2 << 20, 7);
  ASSERT_TRUE(out.completed);
  EXPECT_EQ(out.conn_delivered, 2u << 20);
  EXPECT_TRUE(out.dsn_in_order);
}

TEST_P(MptcpConfigSweep, SubflowBytesCoverConnectionBytes) {
  const auto [cc, sched, mode, simsyn] = GetParam();
  const Outcome out = run_one(Carrier::kAtt, mode, cc, sched, simsyn, 2 << 20, 8);
  ASSERT_TRUE(out.completed);
  // Subflow-level in-order deliveries feed the connection buffer; the sum
  // can exceed the object only by duplicated (reinjected or
  // redundant-scheduled) data, which the reorder buffer counts.
  EXPECT_GE(out.subflow_delivered_sum, out.conn_delivered);
  EXPECT_LE(out.subflow_delivered_sum,
            out.conn_delivered + out.duplicates * 1400 + 64 * 1024);
}

TEST_P(MptcpConfigSweep, ReorderBufferHonoursCapacity) {
  const auto [cc, sched, mode, simsyn] = GetParam();
  const Outcome out = run_one(Carrier::kAtt, mode, cc, sched, simsyn, 2 << 20, 9);
  ASSERT_TRUE(out.completed);
  EXPECT_LE(out.max_buffered, 8u << 20);
  EXPECT_GE(out.ofo_samples, (2u << 20) / 1400);  // >= one sample per data packet
}

TEST_P(MptcpConfigSweep, DeterministicForSeed) {
  const auto [cc, sched, mode, simsyn] = GetParam();
  const Outcome a = run_one(Carrier::kAtt, mode, cc, sched, simsyn, 1 << 20, 10);
  const Outcome b = run_one(Carrier::kAtt, mode, cc, sched, simsyn, 1 << 20, 10);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_DOUBLE_EQ(a.download_s, b.download_s);
  EXPECT_EQ(a.subflow_delivered_sum, b.subflow_delivered_sum);
  EXPECT_EQ(a.ofo_samples, b.ofo_samples);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, MptcpConfigSweep,
    ::testing::Combine(::testing::Values(CcKind::kReno, CcKind::kCoupled, CcKind::kOlia,
                                         CcKind::kVegas),
                       ::testing::Values(SchedulerKind::kMinRtt, SchedulerKind::kRoundRobin,
                                         SchedulerKind::kWeighted, SchedulerKind::kRedundant),
                       ::testing::Values(PathMode::kMptcp2, PathMode::kMptcp4),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<MpParams>& info) {
      std::string name = to_string(std::get<0>(info.param)) + "_" +
                         to_string(std::get<1>(info.param)) + "_" +
                         (std::get<2>(info.param) == PathMode::kMptcp2 ? "mp2" : "mp4") +
                         (std::get<3>(info.param) ? "_simsyn" : "_delayed");
      for (char& ch : name) {
        if (ch == '-' || ch == '&') ch = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Carrier x size sweep: the harsh profiles must still satisfy invariants.

using CarrierSize = std::tuple<Carrier, std::uint64_t>;

class MptcpCarrierSweep : public ::testing::TestWithParam<CarrierSize> {};

TEST_P(MptcpCarrierSweep, HarshPathsStillDeliverExactly) {
  const auto [carrier, bytes] = GetParam();
  const Outcome out = run_one(carrier, PathMode::kMptcp2, CcKind::kCoupled,
                              SchedulerKind::kMinRtt, false, bytes, 21);
  ASSERT_TRUE(out.completed) << to_string(carrier) << " " << bytes;
  EXPECT_EQ(out.conn_delivered, bytes);
  EXPECT_TRUE(out.dsn_in_order);
}

INSTANTIATE_TEST_SUITE_P(
    Carriers, MptcpCarrierSweep,
    ::testing::Combine(::testing::Values(Carrier::kAtt, Carrier::kVerizon, Carrier::kSprint),
                       ::testing::Values(64ull << 10, 1ull << 20, 4ull << 20)),
    [](const ::testing::TestParamInfo<CarrierSize>& info) {
      std::string c = to_string(std::get<0>(info.param));
      for (char& ch : c) {
        if (ch == '&') ch = '_';
      }
      return c + "_" + std::to_string(std::get<1>(info.param) >> 10) + "k";
    });

// ---------------------------------------------------------------------------
// Receive-buffer sweep: tight buffers slow things down but never corrupt.

class MptcpBufferSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MptcpBufferSweep, TightBuffersNeverViolateCapacityOrOrder) {
  const std::uint64_t buf = GetParam();
  TestbedConfig tb_cfg;
  tb_cfg.seed = 77;
  tb_cfg.cellular = netem::sprint_evdo();  // maximal reordering pressure
  RunConfig rc;
  rc.subflow.receive_buffer = buf;
  rc.file_bytes = 1 << 20;
  rc.ping_warmup = false;
  rc.timeout = sim::Duration::seconds(900);
  experiment::Session session{tb_cfg, rc};
  ASSERT_TRUE(session.run().completed) << "buffer=" << buf;
  EXPECT_LE(session.client_connection()->rx().max_buffered_bytes(), buf);
  EXPECT_EQ(session.client_connection()->rx().delivered_bytes(), 1u << 20);
}

INSTANTIATE_TEST_SUITE_P(Buffers, MptcpBufferSweep,
                         ::testing::Values(64ull << 10, 256ull << 10, 1ull << 20,
                                           8ull << 20),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "buf" + std::to_string(info.param >> 10) + "k";
                         });

}  // namespace
}  // namespace mpr::core
