// Seeded mutation fuzzing of the four input parsers: fault scenarios
// (netem::FaultSchedule::parse), campaign specs (CampaignSpec::parse),
// MPRCKPT1 checkpoints (load_checkpoint) and pcap captures
// (analysis::read_pcap).
//
// Each parser starts from one valid input. A fixed, seeded set of mutants
// is derived from it: byte flips, every truncation, duplicated and deleted
// spans, and numeric fields replaced by edge values (nan, -1, 1e309, ...).
// Every mutant must parse or be rejected with an error; none may crash,
// hang or trip a sanitizer (CI runs this suite under ASan and UBSan). What
// a parser accepts must also hold what it promises its callers: scenario
// times and arguments fit the types the injector converts them to, a
// campaign spec samples usable runs, a checkpoint re-serializes to the
// same bytes, and a capture has exactly the records its bytes frame.
//
// Each defect a mutant exposed is kept as a named ParserFuzzRegression
// case at the end of this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/pcap.h"
#include "experiment/campaign.h"
#include "netem/faults.h"
#include "sim/time.h"

namespace mpr {
namespace {

using experiment::CampaignSpec;
using experiment::CheckpointState;
using netem::FaultEvent;
using netem::FaultSchedule;

struct Mutant {
  std::string name;  // how it was derived, for failure messages
  std::string bytes;
};

/// Byte flips, every truncation, and duplicated / deleted spans of `input`.
std::vector<Mutant> structural_mutants(const std::string& input, std::uint64_t seed) {
  std::mt19937_64 rng{seed};
  const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  const std::size_t n = input.size();
  std::vector<Mutant> out;
  for (int i = 0; i < 200; ++i) {
    // Alternate single-bit flips with whole-byte replacements.
    const std::size_t at = pick(n);
    const auto mask = static_cast<unsigned>(i % 2 == 0 ? 1u << pick(8) : 1 + pick(255));
    std::string m = input;
    m[at] = static_cast<char>(static_cast<unsigned char>(m[at]) ^ mask);
    out.push_back({"flip@" + std::to_string(at) + "^" + std::to_string(mask), std::move(m)});
  }
  for (std::size_t len = 0; len < n; ++len) {
    out.push_back({"truncate@" + std::to_string(len), input.substr(0, len)});
  }
  for (int i = 0; i < 100; ++i) {
    const std::size_t at = pick(n);
    const std::size_t len = 1 + pick(std::min<std::size_t>(n - at, 64));
    std::string dup = input;
    dup.insert(at + len, input, at, len);
    out.push_back({"dup@" + std::to_string(at) + "+" + std::to_string(len), std::move(dup)});
    std::string del = input;
    del.erase(at, len);
    out.push_back({"del@" + std::to_string(at) + "+" + std::to_string(len), std::move(del)});
  }
  return out;
}

// Numeric edge values for the text formats. No field of either format
// accepts a negative, non-finite or out-of-range number, so a mutant
// carrying one of these must be rejected.
const char* const kRejectedEdges[] = {"nan", "-nan", "inf", "-inf", "-1", "1e309", "-1e309"};
// These may parse or be rejected; what parses must still hold the
// parser's promises.
const char* const kOtherEdges[] = {"-0",         "0",          "1e300",
                                   "1e-320",     "4294967296", "18446744073709551615",
                                   "18446744073709551616",     "9.3e18"};

struct TextMutant {
  Mutant m;
  bool must_reject;
};

/// Every whitespace-delimited numeric token of `input` replaced by every
/// edge value.
std::vector<TextMutant> numeric_mutants(const std::string& input) {
  std::vector<TextMutant> out;
  std::size_t at = 0;
  while (at < input.size()) {
    const std::size_t begin = input.find_first_not_of(" \t\n", at);
    if (begin == std::string::npos) break;
    const std::size_t end = std::min(input.find_first_of(" \t\n", begin), input.size());
    const std::string tok = input.substr(begin, end - begin);
    char* stop = nullptr;
    (void)std::strtod(tok.c_str(), &stop);
    if (stop == tok.c_str() + tok.size()) {
      const auto add = [&](const char* edge, bool must_reject) {
        std::string m = input;
        m.replace(begin, end - begin, edge);
        out.push_back({{"'" + tok + "'@" + std::to_string(begin) + "->" + edge, std::move(m)},
                       must_reject});
      };
      for (const char* edge : kRejectedEdges) add(edge, true);
      for (const char* edge : kOtherEdges) add(edge, false);
    }
    at = end;
  }
  return out;
}

/// Runs `check` on every mutant; returns the names of the first failures.
template <typename Check>
std::string failures(const std::vector<Mutant>& mutants, Check check) {
  std::string out;
  int n = 0;
  for (const Mutant& m : mutants) {
    if (const std::string why = check(m.bytes); !why.empty() && n++ < 8) {
      out += "  " + m.name + ": " + why + "\n";
    }
  }
  return n == 0 ? "" : std::to_string(n) + " mutant(s) failed, first ones:\n" + out;
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Scenario text
// ---------------------------------------------------------------------------

const char* const kScenario = R"(# time_s  link  action     [args]
2.0       wifi  outage
12.0      wifi  restore
3.0       cell  rate       0.25
4.0       cell  delay      120
6.0       wifi  burstloss  0.01 0.3 0.02 0.4
9.0       wifi  lossclear
20.0      wifi  ifdown
30.0      wifi  ifup
0.0       wifi  mbox strip_syn
0.0       cell  mbox corrupt 4
1.0       cell  mbox nat_seq 1000
1.5       cell  mbox split 3
2.5       wifi  mbox coalesce 20
5.0       conn  sched weighted 2 1
15.0      conn  sched redundant
)";

/// Empty when `text` parses cleanly into a schedule the injector can apply
/// or is rejected with an error; otherwise what went wrong.
std::string check_scenario(const std::string& text, bool must_reject = false) {
  std::istringstream in{text};
  std::string error = "unset";
  const FaultSchedule s = FaultSchedule::parse(in, &error);
  if (!error.empty()) return s.empty() ? "" : "rejected but returned events";
  if (must_reject) return "accepted";
  for (const FaultEvent& ev : s.events()) {
    if (ev.at < sim::Duration::zero()) return "event time outside the clock";
    for (const double v : {ev.a, ev.b, ev.c, ev.d}) {
      if (!std::isfinite(v)) return "non-finite argument";
    }
    for (const double w : ev.weights) {
      if (!(std::isfinite(w) && w > 0)) return "bad weight";
    }
    // What FaultInjector::apply converts: milliseconds to the clock, the
    // middlebox counts to their integer types.
    const bool ms = ev.kind == FaultEvent::Kind::kDelayAdd ||
                    (ev.kind == FaultEvent::Kind::kMiddlebox && ev.arg == "coalesce");
    if (ms && !(ev.a * 1e-3 <= sim::kMaxInputSeconds)) return "delay outside the clock";
    const bool mbox = ev.kind == FaultEvent::Kind::kMiddlebox;
    if (mbox && ev.arg == "nat_seq" && !(ev.a < 0x1p53)) {
      return "nat_seq offset beyond 2^53, where a double stops naming one integer";
    }
    if (mbox && (ev.arg == "split" || ev.arg == "corrupt") &&
        !(ev.a <= std::numeric_limits<std::uint32_t>::max())) {
      return "every-n count beyond 32 bits";
    }
    if (mbox && (ev.arg == "nat_seq" || ev.arg == "split" || ev.arg == "corrupt") &&
        std::floor(ev.a) != ev.a) {
      return "middlebox count or offset not a whole number";
    }
  }
  return "";
}

TEST(ParserFuzz, ScenarioMutantsParseOrAreRejected) {
  ASSERT_EQ(check_scenario(kScenario), "");
  std::istringstream valid{kScenario};
  ASSERT_EQ(FaultSchedule::parse(valid).size(), 15u);
  EXPECT_EQ(failures(structural_mutants(kScenario, 1),
                     [](const std::string& t) { return check_scenario(t); }),
            "");
  for (const TextMutant& tm : numeric_mutants(kScenario)) {
    EXPECT_EQ(check_scenario(tm.m.bytes, tm.must_reject), "") << tm.m.name;
  }
}

// ---------------------------------------------------------------------------
// Campaign spec text
// ---------------------------------------------------------------------------

const char* const kCampaign = R"(# population
users 500
seed 11
checkpoint-every 64
failure-budget 5
carrier att 0.5
carrier sprint 0.5
mode mp2 0.9
mode sp-wifi 0.1
cc olia 1.0
size 64k 0.75
size 2m 0.25
hotspot-prob 0.25
rtt-sigma 0.4
loss-scale 0.5 2.0
mbox-strip-prob 0.08
timeout 120
max-sim-time 300
max-events 5000000
)";

/// Empty when `text` parses into a spec whose sampled users are usable
/// runs, or is rejected with an error; otherwise what went wrong.
std::string check_campaign(const std::string& text, bool must_reject = false) {
  std::istringstream in{text};
  std::string error = "unset";
  const CampaignSpec spec = CampaignSpec::parse(in, &error);
  if (!error.empty()) return "";
  if (must_reject) return "accepted";
  for (std::uint64_t user = 0; user < 4; ++user) {
    const experiment::SampledUser u = experiment::sample_user(spec, user);
    if (!(u.run.timeout > sim::Duration::zero())) return "timeout outside the clock";
    if (u.run.max_sim_time < sim::Duration::zero()) return "max-sim-time outside the clock";
    if (u.run.file_bytes == 0) return "empty object";
    for (const netem::AccessProfile* p : {&u.testbed.wifi, &u.testbed.cellular}) {
      if (p->owd < sim::Duration::zero()) {
        return "one-way delay outside the clock";
      }
    }
  }
  return "";
}

TEST(ParserFuzz, CampaignSpecMutantsParseOrAreRejected) {
  ASSERT_EQ(check_campaign(kCampaign), "");
  EXPECT_EQ(failures(structural_mutants(kCampaign, 2),
                     [](const std::string& t) { return check_campaign(t); }),
            "");
  for (const TextMutant& tm : numeric_mutants(kCampaign)) {
    EXPECT_EQ(check_campaign(tm.m.bytes, tm.must_reject), "") << tm.m.name;
  }
}

// ---------------------------------------------------------------------------
// Checkpoint (MPRCKPT1)
// ---------------------------------------------------------------------------

CampaignSpec checkpoint_spec() {
  CampaignSpec spec;
  spec.users = 100;
  spec.seed = 9;
  return spec;
}

/// A checkpoint with every section populated: three non-empty sketches,
/// every counter and two quarantine records.
std::string valid_checkpoint(const std::string& path) {
  CheckpointState state;
  state.users_done = 40;
  state.agg.completed = 36;
  state.agg.timeouts = 2;
  state.agg.quarantined_watchdog = 1;
  state.agg.quarantined_connection = 1;
  state.agg.delivered_bytes = 36u << 20;
  for (const double v : {0.0, 1.5, 2.0, 7.25, 30.0}) state.agg.download_time_s.add(v);
  for (const double v : {0.0, 0.3, 0.7}) state.agg.cellular_fraction.add(v);
  for (const double v : {0.0, 12.5, 300.0}) state.agg.ofo_delay_ms.add(v);
  state.agg.quarantine.push_back({.user = 7, .seed = 99, .label = "MP-2/x", .reason = "watchdog"});
  state.agg.quarantine.push_back(
      {.user = 12, .seed = 5, .label = "SP-WiFi/y", .reason = "connection-failed"});
  std::string error;
  EXPECT_TRUE(experiment::write_checkpoint(path, checkpoint_spec(), state, &error)) << error;
  return read_file(path);
}

/// Rewrites the FNV-1a trailer so a mutated body gets past the checksum
/// and reaches the decoder.
std::string reseal(std::string bytes) {
  if (bytes.size() < 8) return bytes;
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < bytes.size() - 8; ++i) {
    h ^= static_cast<unsigned char>(bytes[i]);
    h *= 1099511628211ull;
  }
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + static_cast<std::size_t>(i)] = static_cast<char>(h >> (8 * i));
  }
  return bytes;
}

/// Empty when `bytes` load into a state that writes back to exactly
/// `bytes` (the decode is canonical), or are rejected with an error.
std::string check_checkpoint(const std::string& bytes, const std::string& path) {
  write_file(path, bytes);
  CheckpointState state;
  std::string error;
  if (!experiment::load_checkpoint(path, checkpoint_spec(), &state, &error)) {
    return error.empty() ? "rejected without an error" : "";
  }
  if (!experiment::write_checkpoint(path, checkpoint_spec(), state, &error)) return error;
  return read_file(path) == bytes ? "" : "loaded state does not re-serialize to its bytes";
}

TEST(ParserFuzz, CheckpointMutantsLoadOrAreRejected) {
  const std::string path = testing::TempDir() + "mpr_fuzz.ckpt";
  const std::string valid = valid_checkpoint(path);
  ASSERT_EQ(check_checkpoint(valid, path), "");
  // Every mutant is resealed so the decoder sees it: the checksum itself
  // is covered by campaign_test's corruption cases.
  std::vector<Mutant> mutants;
  for (Mutant& m : structural_mutants(valid, 3)) {
    mutants.push_back({m.name, reseal(m.bytes)});
  }
  // Numeric edges: every offset (fields follow a 1-byte flag, so not all
  // are aligned) overwritten by an 8-byte count, length or double.
  const std::uint64_t kEdges[] = {0, 4097, ~0ull, 0x7ff8000000000000ull /* NaN */};
  for (std::size_t at = 0; at + 8 <= valid.size(); ++at) {
    for (const std::uint64_t e : kEdges) {
      std::string m = valid;
      for (int i = 0; i < 8; ++i) m[at + static_cast<std::size_t>(i)] = static_cast<char>(e >> (8 * i));
      mutants.push_back({"word@" + std::to_string(at) + "=" + std::to_string(e), reseal(m)});
    }
  }
  EXPECT_EQ(failures(mutants, [&path](const std::string& b) { return check_checkpoint(b, path); }),
            "");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// pcap
// ---------------------------------------------------------------------------

std::uint32_t u32_at(const std::string& b, std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, b.data() + at, sizeof v);
  return v;
}

void put_u32(std::string& b, std::uint32_t v) { b.append(reinterpret_cast<const char*>(&v), 4); }

/// A capture as write_pcap lays it out: five records of 40 header bytes.
std::string valid_pcap() {
  std::string b;
  for (const std::uint32_t v : {0xa1b2c3d4u, (4u << 16) | 2u, 0u, 0u, 65535u, 101u}) put_u32(b, v);
  for (std::uint32_t i = 0; i < 5; ++i) {
    for (const std::uint32_t v : {i, 1000u * i, 40u, 1440u}) put_u32(b, v);
    std::string hdr(40, '\0');
    hdr[0] = 0x45;
    hdr[9] = 6;
    hdr[15] = static_cast<char>(1 + i);
    hdr[33] = 0x10;
    b += hdr;
  }
  return b;
}

/// How many records `b` frames, or nullopt if it is not a well-formed
/// capture: the global header's magic and LINKTYPE_RAW, then records of a
/// 16-byte header and incl_len >= 40 captured bytes ending exactly at EOF.
std::optional<std::size_t> framed_records(const std::string& b) {
  if (b.size() < 24 || u32_at(b, 0) != 0xa1b2c3d4u || u32_at(b, 20) != 101u) return std::nullopt;
  std::size_t at = 24;
  std::size_t records = 0;
  while (at < b.size()) {
    if (b.size() - at < 16) return std::nullopt;
    const std::uint32_t incl = u32_at(b, at + 8);
    if (incl < 40 || b.size() - at - 16 < incl) return std::nullopt;
    at += 16 + incl;
    ++records;
  }
  return records;
}

/// Empty when read_pcap accepts exactly the well-formed captures, with
/// their record count.
std::string check_pcap(const std::string& bytes, const std::string& path) {
  write_file(path, bytes);
  const auto got = analysis::read_pcap(path);
  const auto want = framed_records(bytes);
  if (got.has_value() != want.has_value()) return got ? "accepted malformed" : "rejected valid";
  if (got && got->size() != *want) return "wrong record count";
  return "";
}

TEST(ParserFuzz, PcapMutantsReadOrAreRejected) {
  const std::string path = testing::TempDir() + "mpr_fuzz.pcap";
  const std::string valid = valid_pcap();
  ASSERT_EQ(check_pcap(valid, path), "");
  ASSERT_EQ(framed_records(valid), 5u);
  std::vector<Mutant> mutants = structural_mutants(valid, 4);
  const std::uint32_t kEdges[] = {0, 1, 39, 40, 41, 96, 0x7fffffffu, 0xffffffffu, 0xd4c3b2a1u};
  for (std::size_t at = 0; at + 4 <= valid.size(); at += 4) {  // every u32 field
    for (const std::uint32_t e : kEdges) {
      std::string m = valid;
      std::memcpy(m.data() + at, &e, sizeof e);
      mutants.push_back({"u32@" + std::to_string(at) + "=" + std::to_string(e), std::move(m)});
    }
  }
  EXPECT_EQ(failures(mutants, [&path](const std::string& b) { return check_pcap(b, path); }), "");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Regressions: the defects the mutants above exposed, one case each.
// ---------------------------------------------------------------------------

std::string scenario_error(const std::string& text) {
  std::istringstream in{text};
  std::string error;
  (void)FaultSchedule::parse(in, &error);
  return error;
}

std::string campaign_error(const std::string& text) {
  std::istringstream in{text};
  std::string error;
  (void)CampaignSpec::parse(in, &error);
  return error;
}

TEST(ParserFuzzRegression, ScenarioEventTimeBeyondTheClockIsRejected) {
  // 1e300 s used to convert to a negative sim::Duration.
  EXPECT_EQ(scenario_error("1e300 wifi outage\n"), "line 1: event time beyond 1e9 s");
  EXPECT_EQ(scenario_error("1e9 wifi outage\n"), "");
}

TEST(ParserFuzzRegression, ScenarioMillisecondArgumentBeyondTheClockIsRejected) {
  EXPECT_NE(scenario_error("4.0 cell delay 1e300\n"), "");
  EXPECT_NE(scenario_error("2.5 wifi mbox coalesce 1e300\n"), "");
  EXPECT_EQ(scenario_error("4.0 cell delay 120\n"), "");
}

TEST(ParserFuzzRegression, ScenarioMiddleboxCountBeyondItsTypeIsRejected) {
  // The injector casts these to uint32_t / uint64_t.
  EXPECT_NE(scenario_error("0.0 cell mbox corrupt 4294967296\n"), "");
  EXPECT_NE(scenario_error("1.5 cell mbox split 1e300\n"), "");
  EXPECT_NE(scenario_error("1.0 cell mbox nat_seq 18446744073709551616\n"), "");
  EXPECT_EQ(scenario_error("0.0 cell mbox corrupt 4294967295\n"), "");
}

TEST(ParserFuzzRegression, ScenarioMiddleboxCountMustBeWhole) {
  // The injector truncated 2.5 to 2 and 3.7 to 3, and the offset
  // 9007199254740993 reached it as 2^53.
  EXPECT_EQ(scenario_error("0.0 wifi mbox split 2.5\n"),
            "line 1: mbox split needs a whole every-n count in [1, 2^32)");
  EXPECT_EQ(scenario_error("0.0 cell mbox corrupt 3.7\n"),
            "line 1: mbox corrupt needs a whole every-n count in [1, 2^32)");
  EXPECT_EQ(scenario_error("1.0 cell mbox nat_seq 9007199254740993\n"),
            "line 1: mbox nat_seq needs a whole offset in [0, 2^53)");
  EXPECT_NE(scenario_error("1.0 cell mbox nat_seq 1000.5\n"), "");
  EXPECT_EQ(scenario_error("1.0 cell mbox nat_seq 9007199254740991\n"), "");
  EXPECT_EQ(scenario_error("1.5 cell mbox split 3e2\n"), "");
}

TEST(ParserFuzzRegression, ScenarioOverflowingLastArgumentIsRejected) {
  // The weight list used to stop at the overflow and keep {2}.
  EXPECT_EQ(scenario_error("5.0 conn sched weighted 2 1e309\n"),
            "line 1: non-numeric argument '1e309'");
}

TEST(ParserFuzzRegression, CampaignNegativeCountIsRejected) {
  // istream reads "-1" into an unsigned as 2^64-1.
  for (const char* key : {"users", "seed", "checkpoint-every", "failure-budget", "max-events"}) {
    EXPECT_NE(campaign_error(std::string{key} + " -1\n"), "") << key;
  }
}

TEST(ParserFuzzRegression, CampaignNegativeSizeIsRejected) {
  // std::stoull negated "-1" into a 2^64-1 byte object.
  EXPECT_NE(campaign_error("size -1 1.0\n"), "");
}

TEST(ParserFuzzRegression, CampaignSizeThatOverflowsIsRejected) {
  // The unchecked suffix multiply wrapped (2^34 + 1) GiB to 1 GiB.
  EXPECT_NE(campaign_error("size 17179869185g 1.0\n"), "");
  EXPECT_EQ(campaign_error("size 17179869183g 1.0\n"), "");  // 2^64 - 2^30 fits
}

TEST(ParserFuzzRegression, CampaignTimesOutsideTheClockAreRejected) {
  EXPECT_NE(campaign_error("timeout 1e300\n"), "");
  EXPECT_NE(campaign_error("timeout 1e-320\n"), "");  // truncated to a 0 ns timeout
  EXPECT_NE(campaign_error("max-sim-time 9.3e18\n"), "");
  EXPECT_EQ(campaign_error("timeout 1e9\nmax-sim-time 0\n"), "");
}

TEST(ParserFuzzRegression, CampaignDelaySpreadThatOverflowsIsRejected) {
  // A huge sigma made sample_user scale one-way delays by inf.
  EXPECT_NE(campaign_error("rtt-sigma 1e300\n"), "");
  EXPECT_EQ(campaign_error("rtt-sigma 1\n"), "");
}

TEST(ParserFuzzRegression, CheckpointNonCanonicalSketchIsRejected) {
  const std::string path = testing::TempDir() + "mpr_fuzz_regression.ckpt";
  const std::string valid = valid_checkpoint(path);
  // Layout: magic, version, spec hash, users, users_done (8 bytes each),
  // then the download-time sketch: alpha, zero count, sum, min, max (8
  // bytes each), the has-samples flag (1), the bucket count (8) and
  // buckets of an i32 index and a u64 count.
  constexpr std::size_t kFlag = 80;
  constexpr std::size_t kFirstBucket = kFlag + 1 + 8;
  constexpr std::size_t kSecondBucket = kFirstBucket + 12;
  CheckpointState state;
  std::string error;

  std::string flag = valid;
  flag[kFlag] = 2;  // used to load as "true" and write back as 1
  write_file(path, reseal(flag));
  EXPECT_FALSE(experiment::load_checkpoint(path, checkpoint_spec(), &state, &error));

  std::string repeated = valid;  // the second bucket's index repeats the first's
  repeated.replace(kSecondBucket, 4, valid, kFirstBucket, 4);
  write_file(path, reseal(repeated));
  EXPECT_FALSE(experiment::load_checkpoint(path, checkpoint_spec(), &state, &error));

  write_file(path, valid);
  EXPECT_TRUE(experiment::load_checkpoint(path, checkpoint_spec(), &state, &error)) << error;
  std::remove(path.c_str());
}

TEST(ParserFuzzRegression, PcapTruncatedRecordIsRejected) {
  const std::string path = testing::TempDir() + "mpr_fuzz_regression.pcap";
  const std::string valid = valid_pcap();
  // A partial record header at the end used to read as a clean end of file.
  write_file(path, valid.substr(0, valid.size() - 56 + 10));
  EXPECT_FALSE(analysis::read_pcap(path).has_value());
  // So did a record whose captured length runs past the end (fseek allows it).
  std::string longer = valid;
  const std::uint32_t incl = 41;
  std::memcpy(longer.data() + valid.size() - 56 + 8, &incl, sizeof incl);
  write_file(path, longer);
  EXPECT_FALSE(analysis::read_pcap(path).has_value());
  write_file(path, valid);
  ASSERT_TRUE(analysis::read_pcap(path).has_value());
  EXPECT_EQ(analysis::read_pcap(path)->size(), 5u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mpr
