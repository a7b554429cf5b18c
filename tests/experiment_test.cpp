// Experiment-harness tests: series/matrix campaign mechanics, result
// aggregation helpers, carrier mapping and table formatting.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "experiment/carriers.h"
#include "experiment/run.h"
#include "experiment/series.h"
#include "experiment/table.h"

namespace mpr::experiment {
namespace {

RunConfig quick_run() {
  RunConfig rc;
  rc.mode = PathMode::kSingleWifi;
  rc.file_bytes = 64 << 10;
  return rc;
}

TEST(Carriers, MappingAndNames) {
  EXPECT_EQ(to_string(Carrier::kAtt), "AT&T");
  EXPECT_EQ(to_string(Carrier::kVerizon), "Verizon");
  EXPECT_EQ(to_string(Carrier::kSprint), "Sprint");
  EXPECT_EQ(carrier_profile(Carrier::kAtt).name, "att_lte");
  EXPECT_EQ(carrier_profile(Carrier::kVerizon).name, "verizon_lte");
  EXPECT_EQ(carrier_profile(Carrier::kSprint).name, "sprint_evdo");
  EXPECT_EQ(all_carriers().size(), 3u);
}

TEST(Carriers, PathModeNames) {
  EXPECT_EQ(to_string(PathMode::kSingleWifi), "SP-WiFi");
  EXPECT_EQ(to_string(PathMode::kSingleCellular), "SP-Cell");
  EXPECT_EQ(to_string(PathMode::kMptcp2), "MP-2");
  EXPECT_EQ(to_string(PathMode::kMptcp4), "MP-4");
}

TEST(Carriers, NameParsersAcceptCliSpellingsOnly) {
  EXPECT_EQ(carrier_from_string("att"), Carrier::kAtt);
  EXPECT_EQ(carrier_from_string("verizon"), Carrier::kVerizon);
  EXPECT_EQ(carrier_from_string("vzw"), Carrier::kVerizon);
  EXPECT_EQ(carrier_from_string("sprint"), Carrier::kSprint);
  EXPECT_EQ(carrier_from_string("AT&T"), std::nullopt);
  EXPECT_EQ(mode_from_string("sp-wifi"), PathMode::kSingleWifi);
  EXPECT_EQ(mode_from_string("sp-cell"), PathMode::kSingleCellular);
  EXPECT_EQ(mode_from_string("mp2"), PathMode::kMptcp2);
  EXPECT_EQ(mode_from_string("mp4"), PathMode::kMptcp4);
  EXPECT_EQ(mode_from_string("MP-2"), std::nullopt);
  for (const core::CcKind k :
       {core::CcKind::kReno, core::CcKind::kCoupled, core::CcKind::kOlia, core::CcKind::kVegas}) {
    EXPECT_EQ(core::cc_from_string(core::to_string(k)), k);
  }
  EXPECT_EQ(core::cc_from_string("cubic"), std::nullopt);
  EXPECT_EQ(core::cc_from_string(""), std::nullopt);
}

TEST(Series, PeriodsCycleThroughDay) {
  EXPECT_EQ(period_name(0), "night");
  EXPECT_EQ(period_name(1), "morning");
  EXPECT_EQ(period_name(2), "afternoon");
  EXPECT_EQ(period_name(3), "evening");
  EXPECT_EQ(period_name(4), "night");
}

TEST(Series, MatrixRunsEveryEntryEveryRep) {
  TestbedConfig tb;
  const std::vector<MatrixEntry> entries{
      {"a", tb, quick_run()},
      {"b", tb, quick_run()},
  };
  const auto results = run_matrix(entries, 3, 42);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results.at("a").size(), 3u);
  EXPECT_EQ(results.at("b").size(), 3u);
  for (const auto& [label, rs] : results) {
    for (const RunResult& r : rs) EXPECT_TRUE(r.completed) << label;
  }
}

// Exact (bitwise) equality over every field the runner fills in; any
// schedule leak into the results shows up here.
void expect_identical(const RunResult& a, const RunResult& b, const std::string& where) {
  EXPECT_EQ(a.completed, b.completed) << where;
  EXPECT_EQ(a.download_time_s, b.download_time_s) << where;
  EXPECT_EQ(a.penalizations, b.penalizations) << where;
  EXPECT_EQ(a.reinjections, b.reinjections) << where;
  EXPECT_EQ(a.wifi_energy_j, b.wifi_energy_j) << where;
  EXPECT_EQ(a.cellular_energy_j, b.cellular_energy_j) << where;
  EXPECT_EQ(a.ofo_ms, b.ofo_ms) << where;
  const auto expect_path_eq = [&where](const PathStats& x, const PathStats& y) {
    EXPECT_EQ(x.bytes_received, y.bytes_received) << where;
    EXPECT_EQ(x.data_packets_sent, y.data_packets_sent) << where;
    EXPECT_EQ(x.rexmit_packets, y.rexmit_packets) << where;
    EXPECT_EQ(x.rtt_ms, y.rtt_ms) << where;
    EXPECT_EQ(x.subflows, y.subflows) << where;
  };
  expect_path_eq(a.wifi, b.wifi);
  expect_path_eq(a.cellular, b.cellular);
}

TEST(Series, MatrixIsBitIdenticalAcrossJobCounts) {
  TestbedConfig tb;
  RunConfig mp = quick_run();
  mp.mode = PathMode::kMptcp2;
  const std::vector<MatrixEntry> entries{
      {"wifi", tb, quick_run()},
      {"mp", tb, mp},
      {"cell", tb, [] { RunConfig rc = quick_run(); rc.mode = PathMode::kSingleCellular; return rc; }()},
  };
  const auto serial = run_matrix(entries, 4, 99, /*jobs=*/1);
  const auto parallel = run_matrix(entries, 4, 99, /*jobs=*/8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (const auto& [label, rs] : serial) {
    ASSERT_TRUE(parallel.contains(label)) << label;
    ASSERT_EQ(rs.size(), parallel.at(label).size()) << label;
    for (std::size_t i = 0; i < rs.size(); ++i) {
      expect_identical(rs[i], parallel.at(label)[i], label + "#" + std::to_string(i));
    }
  }
}

TEST(Series, SeriesMatchesSingleEntryMatrix) {
  TestbedConfig tb;
  const auto direct = run_series(tb, quick_run(), 3, 123, /*jobs=*/2);
  const auto grouped = run_matrix({MatrixEntry{"series", tb, quick_run()}}, 3, 123, /*jobs=*/1);
  ASSERT_EQ(direct.size(), 3u);
  ASSERT_EQ(grouped.at("series").size(), 3u);
  for (std::size_t i = 0; i < direct.size(); ++i) {
    expect_identical(direct[i], grouped.at("series")[i], "series#" + std::to_string(i));
  }
}

TEST(Series, MatrixIsDeterministicForSeed) {
  TestbedConfig tb;
  const std::vector<MatrixEntry> entries{{"a", tb, quick_run()}};
  const auto r1 = run_matrix(entries, 2, 7);
  const auto r2 = run_matrix(entries, 2, 7);
  ASSERT_EQ(r1.at("a").size(), r2.at("a").size());
  for (std::size_t i = 0; i < r1.at("a").size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.at("a")[i].download_time_s, r2.at("a")[i].download_time_s);
  }
}

TEST(Series, DifferentSeedsGiveDifferentResults) {
  TestbedConfig tb;
  const std::vector<MatrixEntry> entries{{"a", tb, quick_run()}};
  const auto r1 = run_matrix(entries, 1, 7);
  const auto r2 = run_matrix(entries, 1, 8);
  EXPECT_NE(r1.at("a")[0].download_time_s, r2.at("a")[0].download_time_s);
}

TEST(Series, AggregationHelpers) {
  RunResult a;
  a.completed = true;
  a.download_time_s = 1.0;
  a.wifi.bytes_received = 750;
  a.cellular.bytes_received = 250;
  a.wifi.rtt_ms = {10, 20};
  a.cellular.rtt_ms = {100};
  a.cellular.data_packets_sent = 100;
  a.cellular.rexmit_packets = 2;
  a.ofo_ms = {0, 10};
  RunResult b = a;
  b.download_time_s = 3.0;
  b.cellular.bytes_received = 750;
  b.wifi.bytes_received = 250;

  const std::vector<RunResult> rs{a, b};
  EXPECT_DOUBLE_EQ(download_time_summary(rs).mean, 2.0);
  EXPECT_DOUBLE_EQ(mean_cellular_fraction(rs), 0.5);
  EXPECT_EQ(pooled_rtt_ms(rs, false).size(), 4u);
  EXPECT_EQ(pooled_rtt_ms(rs, true).size(), 2u);
  EXPECT_EQ(pooled_ofo_ms(rs).size(), 4u);
  const auto loss = loss_rates_percent(rs, true);
  ASSERT_EQ(loss.size(), 2u);
  EXPECT_DOUBLE_EQ(loss[0], 2.0);
  const auto rtts = per_run_mean_rtt_ms(rs, false);
  ASSERT_EQ(rtts.size(), 2u);
  EXPECT_DOUBLE_EQ(rtts[0], 15.0);
  const auto ofo = per_run_mean_ofo_ms(rs);
  ASSERT_EQ(ofo.size(), 2u);
  EXPECT_DOUBLE_EQ(ofo[0], 5.0);
}

TEST(Series, IncompleteRunsExcludedFromDownloadSummary) {
  RunResult ok;
  ok.completed = true;
  ok.download_time_s = 1.0;
  RunResult bad;
  bad.completed = false;
  bad.download_time_s = 3600.0;
  const auto s = download_time_summary({ok, bad});
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 1.0);
}

TEST(RunResults, CellularFraction) {
  RunResult r;
  EXPECT_DOUBLE_EQ(r.cellular_fraction(), 0.0);  // no bytes: no division
  r.wifi.bytes_received = 300;
  r.cellular.bytes_received = 700;
  EXPECT_DOUBLE_EQ(r.cellular_fraction(), 0.7);
}

TEST(RunResults, PathLossRate) {
  PathStats ps;
  EXPECT_DOUBLE_EQ(ps.loss_rate(), 0.0);
  ps.data_packets_sent = 200;
  ps.rexmit_packets = 5;
  EXPECT_DOUBLE_EQ(ps.loss_rate(), 0.025);
}

TEST(Table, Formatting) {
  EXPECT_EQ(fmt_size(64 << 10), "64KB");
  EXPECT_EQ(fmt_size(4ull << 20), "4MB");
  EXPECT_EQ(fmt_size(100), "100B");
  EXPECT_EQ(fmt_scalar(1.2345, "s"), "1.23s");
  EXPECT_EQ(fmt_scalar(1.2345, "ms", 1), "1.2ms");
  analysis::Summary s;
  s.n = 5;
  s.min = 1;
  s.q1 = 2;
  s.median = 3;
  s.q3 = 4;
  s.max = 5;
  EXPECT_EQ(fmt_box(s, "s"), "1.00/2.00/3.00/4.00/5.00s");
  // An empty summary is all-NaN by contract; fmt_box renders it as "-".
  EXPECT_EQ(fmt_box(analysis::Summary{}, "s"), "-");
}

TEST(Run, PingWarmupAvoidsRrcPenalty) {
  TestbedConfig tb;
  tb.seed = 31;
  RunConfig with;
  with.mode = PathMode::kSingleCellular;
  with.file_bytes = 64 << 10;
  with.ping_warmup = true;
  RunConfig without = with;
  without.ping_warmup = false;
  const RunResult warm = run_download(tb, with);
  const RunResult cold = run_download(tb, without);
  ASSERT_TRUE(warm.completed);
  ASSERT_TRUE(cold.completed);
  // Cold start pays the RRC promotion inside the measured download time.
  EXPECT_GT(cold.download_time_s, warm.download_time_s + 0.2);
}

TEST(Run, TimeoutMarksIncomplete) {
  TestbedConfig tb;
  tb.seed = 32;
  RunConfig rc;
  rc.mode = PathMode::kSingleCellular;
  rc.file_bytes = 64 << 20;  // 64 MB
  rc.timeout = sim::Duration::millis(300);
  const RunResult r = run_download(tb, rc);
  EXPECT_FALSE(r.completed);
  EXPECT_DOUBLE_EQ(r.download_time_s, 0.3);
}

// Output lock: one seeded run per path mode on the loaded hotspot +
// Verizon testbed, MP-2 under a lossy fault script, and two runs cut at
// 1.5 s of simulated time, pinned field by field (the download time by its
// bit pattern). A cut run stops before the first event past its cap
// (Simulation::run_while), so its row pins everything that ran inside it. Work
// that must not move simulated output — hot-path and event-count
// reductions, refactors — has to keep every value here; a change that
// means to move them re-records the table and says why.
//
// The values are the same for gcc and clang on x86-64: the simulator's
// arithmetic is IEEE double without fused multiply-add on that target, and
// no expression draws twice from an Rng in an unsequenced order.
struct PinnedPath {
  std::uint64_t data_packets_sent;
  std::uint64_t rexmit_packets;
  std::size_t rtt_samples;
};

// What a pinned run adds to the plain download.
enum class PinVariant {
  kPlain,
  kFaults,       // the lossy fault script below
  kMaxSimTime,   // the max_sim_time watchdog stops it at 1.5 s
  kTimeout,      // the timeout stops it at 1.5 s
  kEveryAction,  // the every-action script below, without the warm-up
};

struct PinnedRun {
  const char* label;
  PathMode mode;
  PinVariant variant;
  RunOutcome outcome;
  std::uint64_t delivered_bytes;
  std::uint64_t download_time_bits;
  PinnedPath wifi;
  PinnedPath cellular;
  std::size_t ofo_samples;
  std::uint64_t reinjections;
};

/// The pinned run, through run_download or, `traced`, through a Session
/// that captures every packet: tracing must change no simulated output.
RunResult pinned_run(const PinnedRun& pin, bool traced) {
  TestbedConfig tb;
  tb.seed = 2013;
  tb.capture_trace = traced;
  tb.wifi = netem::wifi_hotspot();
  tb.cellular = carrier_profile(Carrier::kVerizon);
  RunConfig rc;
  rc.mode = pin.mode;
  rc.file_bytes = 2 << 20;
  rc.timeout = sim::Duration::seconds(120);
  if (pin.variant == PinVariant::kMaxSimTime) rc.max_sim_time = sim::Duration::millis(1500);
  if (pin.variant == PinVariant::kTimeout) rc.timeout = sim::Duration::millis(1500);
  if (pin.variant == PinVariant::kFaults) {
    // Every episode ends before WiFi goes down, as in the lossy benchmark.
    std::istringstream script{
        "1.0 wifi burstloss 0.05 0.3 0.005 0.3\n"
        "1.8 wifi lossclear\n"
        "1.1 cell outage\n"
        "1.5 cell restore\n"
        "1.2 cell rate 0.5\n"
        "1.9 cell rate 1\n"
        "1.3 conn sched redundant\n"
        "2.0 conn sched minrtt\n"
        "2.4 wifi ifdown\n"
        "3.2 wifi ifup\n"};
    std::string error;
    rc.faults = netem::FaultSchedule::parse(script, &error);
    EXPECT_EQ(error, "");
  }
  if (pin.variant == PinVariant::kEveryAction) {
    // Without the warm-up the first SYN leaves from Session's constructor,
    // so only a t = 0 middlebox applied there rewrites it; a NAT that
    // misses the SYN desynchronizes the WiFi flow. A single-path run takes
    // the blackout of ifdown / ifup and ignores `sched`.
    std::istringstream script{
        "0.0 wifi mbox nat_seq 100000\n"
        "0.0 cell mbox corrupt 5\n"
        "0.3 wifi delay 10\n"
        "0.4 cell rate 0.5\n"
        "0.5 wifi burstloss 0.05 0.3 0.005 0.3\n"
        "0.6 conn sched redundant\n"
        "0.8 wifi lossclear\n"
        "0.9 cell delay 20\n"
        "1.0 cell outage\n"
        "1.3 cell restore\n"
        "1.4 conn sched weighted 2 1\n"
        "1.5 wifi rate 0.7\n"
        "1.6 wifi ifdown\n"
        "1.9 wifi delay 0\n"
        "2.1 cell mbox strip_join\n"
        "2.2 wifi ifup\n"
        "2.3 cell burstloss 0.02 0.5 0 0.2\n"
        "2.5 cell lossclear\n"
        "2.6 wifi outage\n"
        "2.7 wifi restore\n"
        "2.8 conn sched rr\n"
        "2.9 cell ifdown\n"
        "3.1 cell mbox off\n"
        "3.2 cell ifup\n"
        "3.3 cell mbox split 3\n"
        "3.4 wifi mbox coalesce 2\n"
        "3.5 wifi mbox off\n"
        "3.6 conn sched minrtt\n"};
    std::string error;
    rc.faults = netem::FaultSchedule::parse(script, &error);
    EXPECT_EQ(error, "");
    rc.ping_warmup = false;
  }
  if (!traced) return run_download(tb, rc);
  Session session{tb, rc};
  const RunResult r = session.run();
  EXPECT_GT(session.testbed().trace()->size(), 0u) << pin.label;
  return r;
}

TEST(Run, PinnedOutputsPerPathMode) {
  const PinnedRun pins[] = {
      {"SP-WiFi", PathMode::kSingleWifi, PinVariant::kPlain, RunOutcome::kCompleted, 2097152,
       0x4015d577d1032388ULL, {1562, 64, 565}, {0, 0, 0}, 0, 0},
      {"SP-Cell", PathMode::kSingleCellular, PinVariant::kPlain, RunOutcome::kCompleted, 2097152,
       0x401fe50920c3a28bULL, {0, 0, 0}, {1498, 0, 756}, 0, 0},
      {"MP-2", PathMode::kMptcp2, PinVariant::kPlain, RunOutcome::kCompleted, 2097152,
       0x40107987b7190662ULL, {688, 38, 285}, {848, 0, 428}, 1498, 0},
      {"MP-4", PathMode::kMptcp4, PinVariant::kPlain, RunOutcome::kCompleted, 2097152,
       0x400c0fd891c0cbfdULL, {846, 75, 305}, {727, 0, 386}, 1498, 0},
      {"MP-2+faults", PathMode::kMptcp2, PinVariant::kFaults, RunOutcome::kCompleted, 2097152,
       0x40116b7da2b1dffcULL, {870, 44, 339}, {757, 45, 340}, 1498, 40},
      {"SP-WiFi@max_sim_time", PathMode::kSingleWifi, PinVariant::kMaxSimTime,
       RunOutcome::kWatchdogAbort, 522200, 0x405e000000000001ULL, {390, 15, 134}, {0, 0, 0}, 0, 0},
      {"MP-2@timeout", PathMode::kMptcp2, PinVariant::kTimeout, RunOutcome::kTimeout, 782600,
       0x3ff8000000000000ULL, {352, 24, 137}, {290, 0, 129}, 559, 0},
  };
  for (const PinnedRun& pin : pins) {
    for (const bool traced : {false, true}) {
      const RunResult r = pinned_run(pin, traced);
      const std::string label = std::string{pin.label} + (traced ? " traced" : "");
      const auto expect_path = [&label](const PathStats& got, const PinnedPath& want,
                                        const char* path) {
        EXPECT_EQ(got.data_packets_sent, want.data_packets_sent) << label << " " << path;
        EXPECT_EQ(got.rexmit_packets, want.rexmit_packets) << label << " " << path;
        EXPECT_EQ(got.rtt_ms.size(), want.rtt_samples) << label << " " << path;
      };
      const auto time_bits = std::bit_cast<std::uint64_t>(r.download_time_s);
      EXPECT_EQ(r.outcome, pin.outcome) << label;
      EXPECT_EQ(r.delivered_bytes, pin.delivered_bytes) << label;
      EXPECT_EQ(time_bits, pin.download_time_bits)
          << label << " download_time_s=" << r.download_time_s << " bits=0x" << std::hex
          << time_bits;
      expect_path(r.wifi, pin.wifi, "wifi");
      expect_path(r.cellular, pin.cellular, "cellular");
      EXPECT_EQ(r.ofo_ms.size(), pin.ofo_samples) << label;
      EXPECT_EQ(r.reinjections, pin.reinjections) << label;
    }
  }
}

// Every scenario action on wifi, cell and conn, applied by the run itself.
TEST(Run, PinnedScenarioActions) {
  const PinnedRun pins[] = {
      {"SP-WiFi", PathMode::kSingleWifi, PinVariant::kEveryAction, RunOutcome::kCompleted,
       2097152, 0x4015ef53ae979c59ULL, {1546, 48, 600}, {0, 0, 0}, 0, 0},
      {"MP-4", PathMode::kMptcp4, PinVariant::kEveryAction, RunOutcome::kCompleted, 2097152,
       0x40213bac0613fc73ULL, {1139, 70, 407}, {774, 90, 359}, 1617, 189},
  };
  for (const PinnedRun& pin : pins) {
    for (const bool traced : {false, true}) {
      const RunResult r = pinned_run(pin, traced);
      const std::string label = std::string{pin.label} + (traced ? " traced" : "");
      const auto expect_path = [&label](const PathStats& got, const PinnedPath& want,
                                        const char* path) {
        EXPECT_EQ(got.data_packets_sent, want.data_packets_sent) << label << " " << path;
        EXPECT_EQ(got.rexmit_packets, want.rexmit_packets) << label << " " << path;
        EXPECT_EQ(got.rtt_ms.size(), want.rtt_samples) << label << " " << path;
      };
      const auto time_bits = std::bit_cast<std::uint64_t>(r.download_time_s);
      EXPECT_EQ(r.outcome, pin.outcome) << label;
      EXPECT_EQ(r.delivered_bytes, pin.delivered_bytes) << label;
      EXPECT_EQ(time_bits, pin.download_time_bits)
          << label << " download_time_s=" << r.download_time_s << " bits=0x" << std::hex
          << time_bits;
      expect_path(r.wifi, pin.wifi, "wifi");
      expect_path(r.cellular, pin.cellular, "cellular");
      EXPECT_EQ(r.ofo_ms.size(), pin.ofo_samples) << label;
      EXPECT_EQ(r.reinjections, pin.reinjections) << label;
    }
  }
}

// A time cap stops the run before the first event past it. On the pinned
// testbed at 1 s that event is a WiFi data delivery, which the old rule
// (stop after the event that crosses the cap) still ran: 1400 bytes more.
// The table's 1.5 s rows happen not to tell the two rules apart. A timeout
// and a max_sim_time cap at the same instant cut at the same event.
TEST(Run, TimeCapStopsBeforeTheEventPastIt) {
  TestbedConfig tb;
  tb.seed = 2013;
  tb.wifi = netem::wifi_hotspot();
  tb.cellular = carrier_profile(Carrier::kVerizon);
  RunConfig rc;
  rc.mode = PathMode::kSingleWifi;
  rc.file_bytes = 2 << 20;
  rc.max_sim_time = sim::Duration::seconds(1);
  const RunResult capped = run_download(tb, rc);
  EXPECT_EQ(capped.outcome, RunOutcome::kWatchdogAbort);
  EXPECT_EQ(capped.delivered_bytes, 491400u);

  rc.max_sim_time = sim::Duration{};
  rc.timeout = sim::Duration::seconds(1);
  const RunResult timed_out = run_download(tb, rc);
  EXPECT_EQ(timed_out.outcome, RunOutcome::kTimeout);
  EXPECT_EQ(timed_out.delivered_bytes, capped.delivered_bytes);
  EXPECT_EQ(timed_out.wifi.rtt_ms.size(), capped.wifi.rtt_ms.size());
}

TEST(Run, LoadFactorScalesDifficulty) {
  TestbedConfig calm;
  calm.seed = 33;
  calm.load_factor = 0.4;
  TestbedConfig busy = calm;
  busy.load_factor = 1.6;
  RunConfig rc;
  rc.mode = PathMode::kSingleCellular;
  rc.file_bytes = 4 << 20;
  double calm_total = 0;
  double busy_total = 0;
  for (int i = 0; i < 5; ++i) {
    calm.seed = busy.seed = 33 + static_cast<std::uint64_t>(i);
    calm_total += run_download(calm, rc).download_time_s;
    busy_total += run_download(busy, rc).download_time_s;
  }
  EXPECT_GT(busy_total, calm_total);
}

}  // namespace
}  // namespace mpr::experiment
