// perfbench — the repository's end-to-end and per-layer benchmark.
//
//   mpr_perfbench --workload backlog|population|lossy --seed N --seconds S
//                 --trace 0|1 [--out-dir DIR] [--tiny] [--forge-short-delivery]
//
// --trace 0 measures the end-to-end metrics: setup is repeated 15 times,
// then whole passes of the workload through the public entry point
// (run_matrix / run_campaign) repeat until S seconds have passed. The clock
// and rusage are read once per pass, never per run. Each setup and pass
// sits between two host calibration loops (host_speed.h) and is scaled to
// the reference host speed; the metrics are medians of the scaled values.
//
// --trace 1 measures the per-layer metrics: one pass through the public
// entry point, then alternating untraced and traced serial replays of the
// same runs through run_download (spans around each call), a Testbed
// build/teardown probe per run, the analysis views, and the layer kernels.
// Spans are written once at exit to DIR/spans-<workload>-<seed>.jsonl.
//
// Every pass is checked: each run must complete and deliver exactly its
// file size, every pass of one invocation must produce the same results
// digest, a replay must reproduce the entry point's results bit for bit,
// and the population replay's aggregates must serialize byte-identically
// to run_campaign's. The last stdout line is one JSON object with
// `correct`, `attempted`, `failed` and `metrics`; a failed check exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "analysis/stats.h"
#include "experiment/testbed.h"
#include "host_speed.h"
#include "kernels.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  int seconds{0};
  int trace{-1};
  std::string out_dir{"."};
  bool tiny{false};
  bool forge_short_delivery{false};
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> errors;
  std::vector<Metric> metrics;

  void add_pass(const PassResult& p) {
    attempted += p.tally.runs;
    failed += p.tally.failed;
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
  }
  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  [[nodiscard]] bool correct() const { return failed == 0 && errors.empty(); }
};

/// Median; 0 for an empty sample.
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return mpr::analysis::quantile_sorted(v, 0.5);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Setup repetitions of an end-to-end run; setup_s is their median.
constexpr int kSetups = 15;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Setup is input generation (including spec / scenario parsing) plus a
/// warm-up download. The warm-up is the same fixed MP-2 download at every
/// seed and in every workload, so setup time does not depend on which
/// configuration a seed draws.
Workload set_up(const Args& a, Report& rep) {
  Workload wl = make_workload(a.workload, a.seed, a.tiny, a.out_dir);
  RunConfig warm;
  warm.file_bytes = (a.tiny ? 1 : 32) * std::uint64_t{1024 * 1024};
  const RunResult r = mpr::experiment::run_download(TestbedConfig{}, warm);
  rep.check(r.outcome == mpr::experiment::RunOutcome::kCompleted &&
                r.delivered_bytes == warm.file_bytes,
            "warm-up download did not deliver its file exactly");
  return wl;
}

/// Host speed relative to the reference over the interval that ended with
/// the last calibration, from the rates measured right before and right
/// after it. Seconds times this are seconds on the reference host.
double speed(const std::vector<double>& calibrations) {
  const double before = calibrations[calibrations.size() - 2];
  return 0.5 * (before + calibrations.back()) / kReferenceRate;
}

void finish_campaign(const Workload& wl, const PassResult& last, Report& rep) {
  if (!wl.spec) return;
  if (last.agg) {
    const std::string err = check_checkpoint(wl, *last.agg);
    rep.check(err.empty(), "campaign checkpoint: " + err);
  }
  std::remove(wl.checkpoint_path.c_str());
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics

void measure_end_to_end(const Args& a, Report& rep) {
  // Every setup repetition and every pass sits between two runs of the
  // calibration loop and is scaled by their mean.
  (void)calibration_rate();  // the first loop runs cold; discard it
  std::vector<double> calibrations{calibration_rate()};
  std::vector<double> setup_s;
  Workload wl;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    wl = set_up(a, rep);
    const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    calibrations.push_back(calibration_rate());
    setup_s.push_back(seconds * speed(calibrations));
  }
  std::printf("workload %s seed %llu: %s\n", wl.name.c_str(),
              static_cast<unsigned long long>(a.seed), wl.params.c_str());

  std::vector<double> raw_runs_per_s;
  std::vector<double> runs_per_s;
  std::vector<double> cpu_ms_per_run;
  std::uint64_t first_digest = 0;
  PassResult last;
  const std::int64_t start = now_ns();
  const std::int64_t budget = static_cast<std::int64_t>(a.seconds) * 1'000'000'000;
  for (int pass = 0; pass < 2 || now_ns() - start < budget; ++pass) {
    const double c0 = cpu_seconds();
    const std::int64_t t0 = now_ns();
    last = run_pass(wl, a.forge_short_delivery && pass == 0);
    const double wall = static_cast<double>(now_ns() - t0) * 1e-9;
    const double cpu = cpu_seconds() - c0;
    calibrations.push_back(calibration_rate());
    const double s = speed(calibrations);
    const auto runs = static_cast<double>(last.tally.runs);
    raw_runs_per_s.push_back(ratio(runs, wall));
    runs_per_s.push_back(ratio(runs, wall * s));
    cpu_ms_per_run.push_back(ratio(cpu * 1e3 * s, runs));
    rep.add_pass(last);
    if (pass == 0) {
      first_digest = last.tally.digest;
      std::printf("digest %s (pass 0, %llu runs)\n", hex(first_digest).c_str(),
                  static_cast<unsigned long long>(last.tally.runs));
    }
    rep.check(last.tally.digest == first_digest,
              "pass " + std::to_string(pass) + " digest " + hex(last.tally.digest) +
                  " differs from pass 0");
  }
  finish_campaign(wl, last, rep);
  std::printf("passes %zu, unscaled runs/s per pass:", raw_runs_per_s.size());
  for (const double v : raw_runs_per_s) std::printf(" %.4g", v);
  std::printf("\ncalibration loops/s (reference %.4g):", kReferenceRate);
  for (const double v : calibrations) std::printf(" %.4g", v);
  std::printf("\nunscaled median runs_per_s %.6g\n", median(raw_runs_per_s));

  const double attempted = static_cast<double>(std::max<std::uint64_t>(rep.attempted, 1));
  rep.metrics = {
      {"runs_per_s", median(runs_per_s), "1/s"},
      {"cpu_ms_per_run", median(cpu_ms_per_run), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", median(setup_s), "s"},
      {"completed_share", (attempted - static_cast<double>(rep.failed)) / attempted, "share"},
  };
  std::printf("failed_share %.6f share (%llu of %llu runs)\n",
              static_cast<double>(rep.failed) / attempted,
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted));
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics

struct Replay {
  double wall_s{0};
  std::vector<RunResult> results;
  Tally tally;
};

/// Serial replay of every run of a pass through run_download, in canonical
/// order; with a recorder, one span per call.
Replay replay(const Workload& wl, SpanRecorder* rec) {
  Replay r;
  r.results.reserve(wl.cells.size());
  const int root = rec != nullptr ? rec->begin("experiment.replay") : -1;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < wl.cells.size(); ++i) {
    const Cell& c = wl.cells[i];
    if (rec != nullptr) {
      const int id = rec->begin("experiment.run_download", root, static_cast<std::int64_t>(i));
      r.results.push_back(mpr::experiment::run_download(c.testbed, c.run));
      rec->end(id);
    } else {
      r.results.push_back(mpr::experiment::run_download(c.testbed, c.run));
    }
  }
  r.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  if (rec != nullptr) rec->end(root);
  for (std::size_t i = 0; i < wl.cells.size(); ++i) {
    r.tally.add(r.results[i], wl.cells[i].run.file_bytes);
  }
  return r;
}

std::string serialized(const mpr::analysis::QSketch& sk) {
  std::string s;
  sk.serialize(s);
  return s;
}

std::string serialized(const CampaignAggregates& agg) {
  std::string s;
  agg.serialize(s);
  return s;
}

void measure_layers(const Args& a, Report& rep) {
  const Workload wl = set_up(a, rep);
  std::printf("workload %s seed %llu (traced): %s\n", wl.name.c_str(),
              static_cast<unsigned long long>(a.seed), wl.params.c_str());
  SpanRecorder rec;

  // 1. One pass through the public entry point, timed as a whole.
  const int entry_id = rec.begin(wl.spec ? "experiment.run_campaign" : "experiment.run_matrix");
  const PassResult entry = run_pass(wl, a.forge_short_delivery);
  rec.end(entry_id);
  const double entry_s = rec.spans()[static_cast<std::size_t>(entry_id)].ms() * 1e-3;
  rep.add_pass(entry);
  finish_campaign(wl, entry, rep);
  std::printf("digest %s (entry pass, %llu runs)\n", hex(entry.tally.digest).c_str(),
              static_cast<unsigned long long>(entry.tally.runs));

  // 2. Untraced and traced serial replays, alternating which goes first,
  // until the time budget is spent.
  std::vector<double> overhead;
  std::vector<double> traced_wall;
  Replay traced;
  const std::int64_t start = now_ns();
  const std::int64_t budget = static_cast<std::int64_t>(a.seconds) * 1'000'000'000;
  for (int iter = 0; iter < 1 || now_ns() - start < budget; ++iter) {
    Replay plain;
    for (int k = 0; k < 2; ++k) {
      if ((k == 0) == (iter % 2 == 0)) {
        plain = replay(wl, nullptr);
      } else {
        traced = replay(wl, &rec);
      }
    }
    overhead.push_back(ratio(traced.wall_s, plain.wall_s) - 1.0);
    traced_wall.push_back(traced.wall_s);
    for (const Replay* r : {&plain, &traced}) {
      rep.attempted += r->tally.runs;
      rep.failed += r->tally.failed;
    }
    if (wl.spec) {
      CampaignAggregates agg;
      for (const RunResult& r : traced.results) merge_user(agg, r);
      const bool same_sketch = entry.agg.has_value() &&
                               serialized(agg.download_time_s) ==
                                   serialized(entry.agg->download_time_s);
      rep.check(same_sketch,
                "replayed download-time QSketch differs from run_campaign's aggregate");
      rep.check(entry.agg.has_value() && serialized(agg) == serialized(*entry.agg),
                "replayed campaign aggregates differ from run_campaign's");
    } else {
      rep.check(traced.tally.digest == entry.tally.digest,
                "replay digest " + hex(traced.tally.digest) + " differs from run_matrix's");
    }
    rep.check(plain.tally.digest == traced.tally.digest,
              "untraced and traced replays disagree");
  }
  std::printf("digest %s (replay, %zu traced passes)\n", hex(traced.tally.digest).c_str(),
              traced_wall.size());

  // 3. Testbed build + teardown for every run's configuration.
  {
    const int root = rec.begin("experiment.testbed_probe");
    for (std::size_t i = 0; i < wl.cells.size(); ++i) {
      const int id = rec.begin("experiment.testbed", root, static_cast<std::int64_t>(i));
      { const mpr::experiment::Testbed tb{wl.cells[i].testbed}; }
      rec.end(id);
    }
    rec.end(root);
  }

  // 4. The workload's views of the last traced replay (median of 3).
  double views_checksum = 0.0;
  std::vector<double> views_ms;
  {
    std::map<std::string, std::vector<RunResult>> grouped;
    CampaignAggregates agg;
    if (wl.spec) {
      for (const RunResult& r : traced.results) merge_user(agg, r);
    } else {
      for (std::size_t i = 0; i < wl.cells.size(); ++i) {
        grouped[wl.cells[i].label].push_back(traced.results[i]);
      }
    }
    for (int i = 0; i < 3; ++i) {
      const int id = rec.begin("analysis.views");
      views_checksum += wl.spec ? campaign_views(agg) : matrix_views(grouped);
      rec.end(id);
      views_ms.push_back(rec.spans()[static_cast<std::size_t>(id)].ms());
    }
  }

  // 5. Layer kernels.
  const KernelResults k = run_kernels(a.seed, a.tiny, rec);
  std::printf("checksums views %.6g kernels %llu\n", views_checksum + entry.views_checksum,
              static_cast<unsigned long long>(k.checksum));

  // Counters of one traced replay (exact and deterministic).
  double events = 0;
  double pool_allocs = 0;
  double pool_reuses = 0;
  double pool_high_water = 0;
  double data_packets = 0;
  double rexmits = 0;
  double rtt_samples = 0;
  double ofo_samples = 0;
  double reinjections = 0;
  double duplicates = 0;
  double redundant = 0;
  double mbox_stripped = 0;
  double fallback = 0;
  for (const RunResult& r : traced.results) {
    const mpr::sim::SimStats& s = r.sim_stats;
    events += static_cast<double>(s.events_executed);
    pool_allocs += static_cast<double>(s.pool_allocated_packets);
    pool_reuses += static_cast<double>(s.pool_reused_packets);
    pool_high_water = std::max(pool_high_water, static_cast<double>(s.pool_high_water));
    data_packets += static_cast<double>(r.wifi.data_packets_sent + r.cellular.data_packets_sent);
    rexmits += static_cast<double>(r.wifi.rexmit_packets + r.cellular.rexmit_packets);
    rtt_samples += static_cast<double>(r.wifi.rtt_ms.size() + r.cellular.rtt_ms.size());
    ofo_samples += static_cast<double>(r.ofo_ms.size());
    reinjections += static_cast<double>(r.reinjections);
    duplicates += static_cast<double>(r.duplicate_packets);
    redundant += static_cast<double>(r.redundant_chunks);
    mbox_stripped += static_cast<double>(s.middlebox_options_stripped);
    fallback += static_cast<double>(s.fallback_plain_tcp);
  }

  // Spans over every traced replay.
  std::vector<double> run_ms;
  double run_allocs = 0;
  for (const Span& s : rec.named("experiment.run_download")) {
    run_ms.push_back(s.ms());
    run_allocs += static_cast<double>(s.allocs);
  }
  std::sort(run_ms.begin(), run_ms.end());
  double run_s_total = 0;
  for (const double ms : run_ms) run_s_total += ms * 1e-3;
  const auto passes = static_cast<double>(traced_wall.size());
  const std::vector<Span> testbeds = rec.named("experiment.testbed");
  double testbed_ms = 0;
  double testbed_allocs = 0;
  for (const Span& s : testbeds) {
    testbed_ms += s.ms();
    testbed_allocs += static_cast<double>(s.allocs);
  }
  const auto n_testbeds = static_cast<double>(std::max<std::size_t>(testbeds.size(), 1));

  rep.metrics = {
      {"experiment.run_download.ms_p50", mpr::analysis::quantile_sorted(run_ms, 0.5), "ms"},
      {"experiment.run_download.ms_p99", mpr::analysis::quantile_sorted(run_ms, 0.99), "ms"},
      {"experiment.run_download.n", static_cast<double>(run_ms.size()), "count"},
      {"experiment.run_download.allocs_per_event", ratio(run_allocs, events * passes),
       "allocs/event"},
      {"experiment.testbed.ms", testbed_ms / n_testbeds, "ms"},
      {"experiment.testbed.allocs", testbed_allocs / n_testbeds, "count"},
      {"experiment.campaign.parallel_efficiency",
       ratio(run_s_total / passes, wl.jobs * entry_s), "share"},
      {"sim.events", events, "count"},
      {"sim.events_per_s", ratio(events * passes, run_s_total), "1/s"},
      {"sim.ns_per_event", ratio(run_s_total * 1e9, events * passes), "ns"},
      {"sim.queue.ns_per_op", k.queue_ns_per_op, "ns"},
      {"net.link.ns_per_packet", k.link_ns_per_packet, "ns"},
      {"net.pool.allocs", pool_allocs, "count"},
      {"net.pool.reuse_share", ratio(pool_reuses, pool_allocs + pool_reuses), "share"},
      {"net.pool.high_water", pool_high_water, "count"},
      {"tcp.seg_ring.ns_per_seg", k.seg_ring_ns_per_seg, "ns"},
      {"tcp.data_packets", data_packets, "count"},
      {"tcp.rexmit_share", ratio(rexmits, data_packets), "share"},
      {"tcp.rtt_samples", rtt_samples, "count"},
      {"core.reorder.ns_per_insert", k.reorder_ns_per_insert, "ns"},
      {"core.cc.ns_per_ack", k.cc_ns_per_ack, "ns"},
      {"core.ofo_samples", ofo_samples, "count"},
      {"core.reinjections", reinjections, "count"},
      {"core.duplicates", duplicates, "count"},
      {"core.redundant_chunks", redundant, "count"},
      {"netem.middlebox_stripped", mbox_stripped, "count"},
      {"netem.fallback_plain_tcp", fallback, "count"},
      {"analysis.views.ms", median(views_ms), "ms"},
      {"analysis.sketch.ns_per_sample", k.sketch_ns_per_sample, "ns"},
      {"trace_overhead_share", median(overhead), "share"},
  };

  const std::string path = a.out_dir + "/spans-" + a.workload + "-" + std::to_string(a.seed) + ".jsonl";
  if (rec.write_jsonl(path)) {
    std::printf("spans %zu written to %s\n", rec.spans().size(), path.c_str());
  } else {
    rep.errors.push_back("cannot write spans to " + path);
  }
}

// ---------------------------------------------------------------------------

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (key == "--tiny") {
      a->tiny = true;
    } else if (key == "--forge-short-delivery") {
      a->forge_short_delivery = true;
    } else if (const char* v = value(); v == nullptr) {
      return false;
    } else if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::atoi(v);
    } else if (key == "--trace") {
      a->trace = std::atoi(v);
    } else if (key == "--out-dir") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  bool known = false;
  for (const std::string& n : kWorkloadNames) known = known || n == a->workload;
  return known && a->seconds >= 1 && a->seconds <= 600 && (a->trace == 0 || a->trace == 1);
}

void print_json(const Report& rep) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              rep.correct() ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: mpr_perfbench --workload backlog|population|lossy --seed N "
                 "--seconds 1..600 --trace 0|1 [--out-dir DIR] [--tiny] "
                 "[--forge-short-delivery]\n");
    return 2;
  }
  Report rep;
  try {
    if (args.trace == 0) {
      measure_end_to_end(args, rep);
    } else {
      measure_layers(args, rep);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpr_perfbench: %s\n", e.what());
    return 1;
  }
  for (const Metric& m : rep.metrics) {
    std::printf("  %-44s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : rep.errors) {
    std::printf("check failed: %s\n", e.c_str());
    std::fprintf(stderr, "mpr_perfbench: check failed: %s\n", e.c_str());
  }
  print_json(rep);
  return rep.correct() ? 0 : 1;
}
