#include "workloads.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "analysis/stats.h"
#include "experiment/carriers.h"
#include "netem/faults.h"
#include "sim/rng.h"

namespace perfbench {

namespace mx = mpr::experiment;
using mpr::core::CcKind;
using mpr::experiment::Carrier;
using mpr::experiment::PathMode;

namespace {

constexpr std::uint64_t kMiB = 1024 * 1024;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

/// `n` evenly spaced sizes over [lo, hi] (KiB-aligned) in a seeded order:
/// the seed decides which configuration gets which size, never the total,
/// so the work of a pass is the same at every seed.
std::vector<std::uint64_t> shuffled_grid(std::size_t n, std::uint64_t lo, std::uint64_t hi,
                                         mpr::sim::Rng& rng) {
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t step = n > 1 ? (hi - lo) * i / (n - 1) : 0;
    v[i] = (lo + step) / 1024 * 1024;
  }
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(v[i - 1], v[j]);
  }
  return v;
}

std::string label_of(PathMode mode, CcKind cc, Carrier carrier) {
  return mx::to_string(mode) + "/" + mpr::core::to_string(cc) + "/" + mx::to_string(carrier);
}

/// Canonical cells of a matrix pass: labels in run_matrix's result order
/// (sorted), reps ascending, each with the seed and day-period load factor
/// run_matrix derives for that (label, rep).
std::vector<Cell> matrix_cells(const std::vector<MatrixEntry>& entries, int reps,
                               std::uint64_t matrix_seed) {
  std::map<std::string, const MatrixEntry*> by_label;
  for (const MatrixEntry& e : entries) by_label[e.label] = &e;
  const mpr::sim::SeedSequence seeds{matrix_seed};
  std::vector<Cell> cells;
  for (const auto& [label, e] : by_label) {
    for (int rep = 0; rep < reps; ++rep) {
      Cell c{label, e->testbed, e->run};
      c.testbed.load_factor *= mx::kPeriodLoadFactors[static_cast<std::size_t>(rep) %
                                                      mx::kPeriodLoadFactors.size()];
      c.testbed.seed = seeds.seed_for(label + "#" + std::to_string(rep));
      cells.push_back(std::move(c));
    }
  }
  return cells;
}

Workload make_backlog(std::uint64_t seed, bool tiny) {
  const mpr::sim::SeedSequence gen{seed};
  mpr::sim::Rng rng = gen.stream("perfbench.backlog");
  Workload wl;
  wl.name = "backlog";
  wl.jobs = 1;
  wl.reps = tiny ? 1 : 2;
  wl.matrix_seed = gen.seed_for("perfbench.backlog.matrix");
  const std::uint64_t scale = tiny ? 64 : 1;
  const std::vector<std::uint64_t> sizes = shuffled_grid(12, 32 * kMiB / scale, 64 * kMiB / scale, rng);
  std::size_t i = 0;
  for (const CcKind cc : {CcKind::kReno, CcKind::kCoupled, CcKind::kOlia}) {
    for (const Carrier carrier : {Carrier::kAtt, Carrier::kVerizon}) {
      for (const PathMode mode : {PathMode::kMptcp2, PathMode::kMptcp4}) {
        MatrixEntry e;
        e.label = label_of(mode, cc, carrier);
        e.testbed.cellular = mx::carrier_profile(carrier);
        e.run.mode = mode;
        e.run.cc = cc;
        e.run.file_bytes = sizes[i++];
        e.run.timeout = mpr::sim::Duration::seconds(7200);
        wl.entries.push_back(std::move(e));
      }
    }
  }
  wl.cells = matrix_cells(wl.entries, wl.reps, wl.matrix_seed);
  wl.params = "run_matrix jobs=1 reps=" + std::to_string(wl.reps) +
              " entries=12 (reno|coupled|olia x AT&T|Verizon x MP-2|MP-4, home WiFi)"
              " sizes=seeded shuffle of a 12-point grid over " +
              (tiny ? std::string{"0.5-1 MiB"} : std::string{"32-64 MiB"});
  return wl;
}

/// A seeded fault script for one lossy entry, in the scenario text format
/// (parsed back through netem::FaultSchedule::parse).
std::string lossy_script(mpr::sim::Rng& rng, std::size_t entry) {
  char buf[1024];
  // Times are from run start. Nothing hits before the ping warm-up and the
  // handshakes are done. Every episode ends before WiFi goes down, so the
  // interface is removed and re-joined over a healthy cellular path:
  // overlapping it with a cellular rate step can strand data for good (a
  // recovery stall in the simulator, not a benchmark input).
  const double t_burst = rng.uniform(2.5, 3.0);
  const double t_out = rng.uniform(2.5, 3.0);
  const double t_step = rng.uniform(2.5, 3.0);
  const double t_sched = rng.uniform(2.5, 3.0);
  const double t_down = rng.uniform(5.5, 6.0);
  const double p_g2b = rng.uniform(0.02, 0.08);
  const double p_b2g = rng.uniform(0.2, 0.4);
  const double loss_bad = rng.uniform(0.2, 0.4);
  const double burst_len = rng.uniform(1.0, 2.0);
  const double out_len = rng.uniform(0.3, 1.0);
  const double step_len = rng.uniform(0.5, 2.0);
  const double sched_len = rng.uniform(0.5, 2.0);
  const double down_len = rng.uniform(0.5, 1.5);
  const double step = rng.uniform(0.3, 0.7);
  // A rate step (x nominal, then back to 1) or a delay step (+ms, then 0).
  const bool rate = entry % 2 == 0;
  char step_on[64];
  std::snprintf(step_on, sizeof step_on, rate ? "cell rate %.4f" : "wifi delay %.0f",
                rate ? step : step * 100.0 + 10.0);
  std::snprintf(buf, sizeof buf,
                "%.3f wifi burstloss %.4f %.4f 0.005 %.4f\n"
                "%.3f wifi lossclear\n"
                "%.3f cell outage\n"
                "%.3f cell restore\n"
                "%.3f %s\n"
                "%.3f %s\n"
                "%.3f conn sched redundant\n"
                "%.3f conn sched minrtt\n"
                "%.3f wifi ifdown\n"
                "%.3f wifi ifup\n",
                t_burst, p_g2b, p_b2g, loss_bad, t_burst + burst_len, t_out, t_out + out_len,
                t_step, step_on, t_step + step_len, rate ? "cell rate 1" : "wifi delay 0",
                t_sched, t_sched + sched_len, t_down, t_down + down_len);
  return buf;
}

Workload make_lossy(std::uint64_t seed, bool tiny) {
  const mpr::sim::SeedSequence gen{seed};
  mpr::sim::Rng rng = gen.stream("perfbench.lossy");
  Workload wl;
  wl.name = "lossy";
  wl.jobs = 1;
  wl.reps = tiny ? 1 : 3;
  wl.matrix_seed = gen.seed_for("perfbench.lossy.matrix");
  const std::uint64_t scale = tiny ? 16 : 1;
  constexpr std::size_t kEntries = 16;
  const std::vector<std::uint64_t> sizes =
      shuffled_grid(kEntries, 8 * kMiB / scale, 16 * kMiB / scale, rng);
  const CcKind ccs[] = {CcKind::kReno, CcKind::kCoupled, CcKind::kOlia};
  for (std::size_t i = 0; i < kEntries; ++i) {
    // Half the entries run with the DSS checksum; each has its own script.
    const PathMode mode = (i & 1) != 0 ? PathMode::kMptcp4 : PathMode::kMptcp2;
    const Carrier carrier = (i & 2) != 0 ? Carrier::kVerizon : Carrier::kAtt;
    const bool dss = (i & 4) != 0;
    const CcKind cc = ccs[i % 3];
    MatrixEntry e;
    e.label = label_of(mode, cc, carrier) + (dss ? "/dss" : "") + "/#" + std::to_string(i);
    e.testbed.wifi = mpr::netem::wifi_hotspot();
    e.testbed.cellular = mx::carrier_profile(carrier);
    e.run.mode = mode;
    e.run.cc = cc;
    e.run.dss_checksum = dss;
    e.run.file_bytes = sizes[i];
    e.run.timeout = mpr::sim::Duration::seconds(600);
    std::istringstream script{lossy_script(rng, i)};
    std::string error;
    e.run.faults = mpr::netem::FaultSchedule::parse(script, &error);
    if (!error.empty()) throw std::runtime_error("lossy fault script: " + error);
    wl.entries.push_back(std::move(e));
  }
  wl.cells = matrix_cells(wl.entries, wl.reps, wl.matrix_seed);
  wl.params = "run_matrix jobs=1 reps=" + std::to_string(wl.reps) +
              " entries=16 (MP-2|MP-4 x AT&T|Verizon x dss_checksum off|on x 2 seeded"
              " burstloss/outage/ifdown/rate-or-delay/sched scripts, CCs in rotation,"
              " hotspot WiFi) sizes=seeded shuffle of a 16-point grid over " +
              (tiny ? std::string{"0.5-1 MiB"} : std::string{"8-16 MiB"});
  return wl;
}

Workload make_population(std::uint64_t seed, bool tiny, const std::string& out_dir) {
  const mpr::sim::SeedSequence gen{seed};
  Workload wl;
  wl.name = "population";
  wl.jobs = 2;
  const std::uint64_t users = tiny ? 64 : 4096;
  std::ostringstream text;
  text << "users " << users << "\n"
       << "seed " << gen.seed_for("perfbench.population") << "\n"
       << "checkpoint-every " << (tiny ? 16 : 256) << "\n"
       << "carrier att 1\ncarrier verizon 1\ncarrier sprint 1\n"
       << "mode sp-wifi 1\nmode sp-cell 1\nmode mp2 1\nmode mp4 1\n"
       << "cc reno 1\ncc coupled 1\ncc olia 1\n"
       << "size 8k 1\nsize 32k 1\nsize 128k 1\nsize 512k 1\n"
       << "hotspot-prob 0.25\nrtt-sigma 0.3\nloss-scale 0.5 2.0\nmbox-strip-prob 0.1\n";
  std::istringstream in{text.str()};
  std::string error;
  wl.spec = CampaignSpec::parse(in, &error);
  if (!error.empty()) throw std::runtime_error("population spec: " + error);
  wl.checkpoint_path =
      out_dir + "/population-" + std::to_string(static_cast<long>(::getpid())) + ".ckpt";
  wl.cells.reserve(users);
  for (std::uint64_t u = 0; u < users; ++u) {
    mx::SampledUser su = mx::sample_user(*wl.spec, u);
    wl.cells.push_back(Cell{std::move(su.label), su.testbed, std::move(su.run)});
  }
  wl.params = "run_campaign jobs=2 users=" + std::to_string(users) +
              " checkpoint-every=" + std::to_string(wl.spec->checkpoint_every) +
              " sizes=8k|32k|128k|512k modes=SP-WiFi|SP-Cell|MP-2|MP-4"
              " carriers=AT&T|Verizon|Sprint ccs=reno|coupled|olia hotspot-prob=0.25"
              " rtt-sigma=0.3 loss-scale=0.5-2.0 mbox-strip-prob=0.1";
  return wl;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny,
                       const std::string& out_dir) {
  if (name == "backlog") return make_backlog(seed, tiny);
  if (name == "lossy") return make_lossy(seed, tiny);
  if (name == "population") return make_population(seed, tiny, out_dir);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

void Tally::add(const RunResult& r, std::uint64_t file_bytes) {
  ++runs;
  if (r.outcome != mx::RunOutcome::kCompleted || r.delivered_bytes != file_bytes) ++failed;
  std::uint64_t time_bits = 0;
  std::memcpy(&time_bits, &r.download_time_s, sizeof time_bits);
  mix(digest, static_cast<std::uint64_t>(r.outcome));
  mix(digest, time_bits);
  mix(digest, r.delivered_bytes);
  mix(digest, r.wifi.rexmit_packets + r.cellular.rexmit_packets);
  mix(digest, r.reinjections);
}

void Tally::add_bytes(const std::string& bytes) {
  for (const char c : bytes) {
    digest ^= static_cast<unsigned char>(c);
    digest *= kFnvPrime;
  }
}

double matrix_views(const std::map<std::string, std::vector<RunResult>>& results) {
  using mpr::analysis::Ccdf;
  double acc = 0.0;
  const auto tail = [&acc](std::vector<double> samples) {
    const Ccdf c{std::move(samples)};
    if (c.n() > 0) acc += c.value_at_probability(0.01) + c.value_at_probability(0.5);
  };
  for (const auto& [label, rs] : results) {
    const mpr::analysis::Summary s = mx::download_time_summary(rs);
    if (s.n > 0) acc += s.median + s.q3;
    for (const bool cellular : {false, true}) {
      tail(mx::pooled_rtt_ms(rs, cellular));
      for (const double v : mx::loss_rates_percent(rs, cellular)) acc += v;
    }
    tail(mx::pooled_ofo_ms(rs));
  }
  return acc;
}

double campaign_views(const CampaignAggregates& agg) {
  double acc = 0.0;
  for (const mpr::analysis::QSketch* sk :
       {&agg.download_time_s, &agg.cellular_fraction, &agg.ofo_delay_ms}) {
    if (sk->count() == 0) continue;
    for (const double q : {0.1, 0.5, 0.9, 0.99}) acc += sk->quantile(q);
  }
  return acc;
}

void merge_user(CampaignAggregates& agg, const RunResult& r) {
  agg.delivered_bytes += r.delivered_bytes;
  switch (r.outcome) {
    case mx::RunOutcome::kCompleted:
      ++agg.completed;
      agg.download_time_s.add(r.download_time_s);
      agg.cellular_fraction.add(r.cellular_fraction());
      for (const double ms : r.ofo_ms) agg.ofo_delay_ms.add(ms);
      return;
    case mx::RunOutcome::kTimeout:
      ++agg.timeouts;
      return;
    case mx::RunOutcome::kConnectionFailed:
      ++agg.quarantined_connection;
      return;
    case mx::RunOutcome::kWatchdogAbort:
      ++agg.quarantined_watchdog;
      return;
  }
}

PassResult run_pass(const Workload& wl, bool forge_short_delivery) {
  PassResult out;
  if (!wl.spec) {
    auto results = mx::run_matrix(wl.entries, wl.reps, wl.matrix_seed, wl.jobs);
    if (forge_short_delivery && !results.empty() && !results.begin()->second.empty()) {
      results.begin()->second.front().delivered_bytes -= 1;
    }
    std::map<std::string, std::uint64_t> bytes;
    for (const MatrixEntry& e : wl.entries) bytes[e.label] = e.run.file_bytes;
    for (const auto& [label, rs] : results) {
      for (std::size_t rep = 0; rep < rs.size(); ++rep) {
        const std::uint64_t failed_before = out.tally.failed;
        out.tally.add(rs[rep], bytes.at(label));
        if (out.tally.failed != failed_before) {
          out.errors.push_back(label + " rep " + std::to_string(rep) + ": " +
                               mx::to_string(rs[rep].outcome) + ", delivered " +
                               std::to_string(rs[rep].delivered_bytes) + " of " +
                               std::to_string(bytes.at(label)) + " bytes");
        }
      }
    }
    if (out.tally.runs != wl.cells.size()) {
      out.errors.push_back("run_matrix returned " + std::to_string(out.tally.runs) + " of " +
                           std::to_string(wl.cells.size()) + " runs");
    }
    out.views_checksum = matrix_views(results);
    return out;
  }

  mx::CampaignOptions opt;
  opt.checkpoint_path = wl.checkpoint_path;
  opt.jobs = wl.jobs;
  std::string error;
  std::optional<mx::CampaignResult> res = mx::run_campaign(*wl.spec, opt, &error);
  if (!res) {
    out.errors.push_back("run_campaign: " + error);
    out.tally.runs = wl.cells.size();
    out.tally.failed = wl.cells.size();
    return out;
  }
  CampaignAggregates& agg = res->agg;
  if (forge_short_delivery) agg.delivered_bytes -= 1;
  std::uint64_t expected_bytes = 0;
  for (const Cell& c : wl.cells) expected_bytes += c.run.file_bytes;
  out.tally.runs = res->users_done;
  out.tally.failed = wl.spec->users - agg.completed;
  if (agg.delivered_bytes != expected_bytes) {
    out.errors.push_back("population delivered " + std::to_string(agg.delivered_bytes) +
                         " bytes, expected exactly " + std::to_string(expected_bytes));
    if (out.tally.failed == 0) out.tally.failed = 1;
  }
  std::string bytes;
  agg.serialize(bytes);
  out.tally.add_bytes(bytes);
  out.views_checksum = campaign_views(agg);
  out.agg = std::move(agg);
  return out;
}

std::string check_checkpoint(const Workload& wl, const CampaignAggregates& agg) {
  mx::CheckpointState state;
  std::string error;
  if (!mx::load_checkpoint(wl.checkpoint_path, *wl.spec, &state, &error)) return error;
  if (state.users_done != wl.spec->users) return "checkpoint holds a partial campaign";
  std::string a;
  std::string b;
  state.agg.serialize(a);
  agg.serialize(b);
  return a == b ? "" : "checkpoint aggregates differ from the campaign's";
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
