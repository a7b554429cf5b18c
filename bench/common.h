// Shared helpers for the reproduction benches.
//
// Every bench binary runs one measurement campaign of the paper on the
// simulated testbed, once, and prints every table and figure the paper
// reads off it: the same rows/series the paper reports, annotated with the
// paper's reference values where the paper gives concrete numbers.
// Absolute values are not expected to match (the substrate is a calibrated
// simulator); the shape is the reproduction target (see EXPERIMENTS.md).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "alloc_interposer.h"
#include "analysis/stats.h"
#include "experiment/carriers.h"
#include "experiment/run.h"
#include "experiment/series.h"
#include "experiment/table.h"
#include "net/packet_pool.h"
#include "sim/event_queue.h"
#include "sim/thread_pool.h"

namespace mpr::bench {

using analysis::Ccdf;
using analysis::Summary;
using analysis::summarize;
using experiment::Carrier;
using experiment::MatrixEntry;
using experiment::PathMode;
using experiment::RunConfig;
using experiment::RunResult;
using experiment::TestbedConfig;

inline constexpr std::uint64_t kKB = 1024;
inline constexpr std::uint64_t kMB = 1024 * 1024;

/// Repetitions per configuration; override with MPR_REPS for longer runs
/// (the paper performs 20 per period and location).
inline int reps(int default_reps) {
  if (const char* env = std::getenv("MPR_REPS"); env != nullptr) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return default_reps;
}

inline TestbedConfig testbed_for(Carrier carrier, bool hotspot = false) {
  TestbedConfig tb;
  tb.wifi = hotspot ? netem::wifi_hotspot() : netem::wifi_home();
  tb.cellular = experiment::carrier_profile(carrier);
  return tb;
}

/// Number of parallel campaign jobs this bench will use (MPR_JOBS).
inline unsigned jobs() { return sim::effective_jobs(); }

namespace detail {
inline std::chrono::steady_clock::time_point bench_start;

/// Perf trailer printed at exit: wall clock, simulator events executed
/// (summed over every run's EventQueue) and throughput, plus allocation
/// telemetry — heap allocations per event (global new interposer) and
/// packet-pool traffic (misses vs recycles) — so perf PRs have a
/// trajectory to compare against.
inline void print_perf_trailer() {
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - bench_start).count();
  const std::uint64_t events = sim::EventQueue::total_executed();
  const std::uint64_t heap = heap_allocations();
  const std::uint64_t pool_allocs = net::PacketPool::total_allocs();
  const std::uint64_t pool_reuses = net::PacketPool::total_reuses();
  const std::uint64_t acquires = pool_allocs + pool_reuses;
  std::printf("\n[perf] wall=%.2fs events=%llu rate=%.2fM events/s jobs=%u\n", wall_s,
              static_cast<unsigned long long>(events),
              wall_s > 0 ? static_cast<double>(events) / wall_s * 1e-6 : 0.0, jobs());
  std::printf(
      "[perf] heap_allocs=%llu (%.3f/event) pool_allocs=%llu pool_reuses=%llu "
      "(reuse=%.1f%%)\n",
      static_cast<unsigned long long>(heap),
      events > 0 ? static_cast<double>(heap) / static_cast<double>(events) : 0.0,
      static_cast<unsigned long long>(pool_allocs),
      static_cast<unsigned long long>(pool_reuses),
      acquires > 0 ? 100.0 * static_cast<double>(pool_reuses) / static_cast<double>(acquires)
                   : 0.0);
}
}  // namespace detail

inline void header(const std::string& id, const std::string& title,
                   const std::string& note = "") {
  [[maybe_unused]] static const bool instrumented = [] {
    detail::bench_start = std::chrono::steady_clock::now();
    std::atexit(detail::print_perf_trailer);
    return true;
  }();
  std::printf("\n==== %s: %s ====\n", id.c_str(), title.c_str());
  if (!note.empty()) std::printf("     %s\n", note.c_str());
}

/// Box summary of completed download times, "min/q1/med/q3/max" in seconds.
inline std::string box_s(const std::vector<RunResult>& rs) {
  return experiment::fmt_box(experiment::download_time_summary(rs), "");
}

inline std::string mean_s(const std::vector<RunResult>& rs) {
  const Summary s = experiment::download_time_summary(rs);
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.2f±%.2f", s.mean, s.stderr_mean);
  return buf;
}

/// Prints one CCDF line: n, min, p50/p75/p90/p99 and max of the sample (ms).
inline void print_ccdf_row(const std::string& label, const std::vector<double>& samples) {
  if (samples.empty()) {
    std::printf("%-22s (no samples)\n", label.c_str());
    return;
  }
  const Ccdf c{samples};
  std::printf(
      "%-22s n=%-7zu min=%-7.1f p50=%-7.1f p75=%-7.1f p90=%-8.1f p99=%-8.1f max=%.1f\n",
      label.c_str(), c.n(), c.sorted_samples().front(), c.value_at_probability(0.5),
      c.value_at_probability(0.25), c.value_at_probability(0.1), c.value_at_probability(0.01),
      c.sorted_samples().back());
}

/// Mean ± stderr string over a per-run statistic.
inline std::string pm(const std::vector<double>& values, int precision = 2) {
  const Summary s = summarize(values);
  if (s.n == 0) return "-";
  return analysis::format_pm(s.mean, s.stderr_mean, precision);
}

/// One paper campaign's runs: every entry label's run set at each object
/// size. The figures and tables of a paper section are views of one
/// Campaign, as the paper reads them off one set of traces.
struct Campaign {
  std::vector<std::uint64_t> sizes;
  std::vector<std::string> labels;  // entry order, as the download-time view lists them
  std::map<std::string, std::vector<std::vector<RunResult>>> runs;  // [label][size index]

  [[nodiscard]] const std::vector<RunResult>& at(const std::string& label,
                                                 std::uint64_t size) const {
    const auto i = std::find(sizes.begin(), sizes.end(), size) - sizes.begin();
    return runs.at(label).at(static_cast<std::size_t>(i));
  }
};

/// Runs `entries(size)` through run_matrix once per size, seeded `seed(size)`.
template <typename Entries, typename Seed>
Campaign run_by_size(std::vector<std::uint64_t> sizes, int reps, Entries entries, Seed seed) {
  Campaign c{std::move(sizes), {}, {}};
  for (const std::uint64_t size : c.sizes) {
    const std::vector<MatrixEntry> es = entries(size);
    if (c.labels.empty()) {
      for (const MatrixEntry& e : es) c.labels.push_back(e.label);
    }
    for (auto& [label, rs] : experiment::run_matrix(es, reps, seed(size))) {
      c.runs[label].push_back(std::move(rs));
    }
  }
  return c;
}

/// The single-path and MP-2/MP-4 × controller entries of a download-time
/// matrix on one testbed, labelled "SP-WiFi", "MP-2(coupled)", ...
inline std::vector<MatrixEntry> path_mode_entries(const TestbedConfig& tb, std::uint64_t size,
                                                  const std::vector<core::CcKind>& ccs) {
  std::vector<MatrixEntry> entries;
  for (const PathMode mode : {PathMode::kSingleWifi, PathMode::kSingleCellular}) {
    RunConfig rc;
    rc.mode = mode;
    rc.file_bytes = size;
    entries.push_back({to_string(mode), tb, rc});
  }
  for (const PathMode mode : {PathMode::kMptcp2, PathMode::kMptcp4}) {
    for (const core::CcKind cc : ccs) {
      RunConfig rc;
      rc.mode = mode;
      rc.cc = cc;
      rc.file_bytes = size;
      entries.push_back({to_string(mode) + "(" + core::to_string(cc) + ")", tb, rc});
    }
  }
  return entries;
}

/// Download-time view: per object size, one box line per entry (with the
/// mean±stderr first when `with_mean`).
inline void print_download_times(const Campaign& c, int width, bool with_mean = false) {
  for (const std::uint64_t size : c.sizes) {
    std::printf("\n-- object size %s --\n", experiment::fmt_size(size).c_str());
    for (const std::string& label : c.labels) {
      const std::vector<RunResult>& rs = c.at(label, size);
      if (with_mean) {
        std::printf("  %-*s mean=%-12s box=%s\n", width, label.c_str(), mean_s(rs).c_str(),
                    box_s(rs).c_str());
      } else {
        std::printf("  %-*s %s\n", width, label.c_str(), box_s(rs).c_str());
      }
    }
  }
}

/// Cellular-fraction view: a header of object sizes, then per row the mean
/// cellular traffic share of the campaign's `label` runs at each size.
struct FractionRow {
  std::string name;
  std::string label;
};
inline void print_cell_fraction(const Campaign& c, const char* corner, int width,
                                const std::vector<FractionRow>& rows) {
  std::printf("%-*s", width, corner);
  for (const std::uint64_t s : c.sizes) std::printf("%10s", experiment::fmt_size(s).c_str());
  std::printf("\n");
  for (const FractionRow& row : rows) {
    std::printf("%-*s", width, row.name.c_str());
    for (const std::uint64_t size : c.sizes) {
      std::printf("%9.0f%%", experiment::mean_cellular_fraction(c.at(row.label, size)) * 100.0);
    }
    std::printf("\n");
  }
}

/// The paper's loss (%) and RTT (ms) cells of one path, one per size.
struct PaperPath {
  const char* loss[4];
  const char* rtt[4];
};

/// Path-characteristics view: the loss and RTT (mean±stderr) of the
/// campaign's single-path `label` runs at each size, beside the paper's.
inline void print_path_chars(const char* name, const Campaign& c, const std::string& label,
                             bool cellular, const PaperPath& paper, int paper_width = 8) {
  std::printf("\n%s:\n  %-8s %-18s %-*s %-20s %-*s\n", name, "size", "loss% (measured)",
              paper_width, "(paper)", "RTT ms (measured)", paper_width, "(paper)");
  for (std::size_t i = 0; i < c.sizes.size(); ++i) {
    const std::vector<RunResult>& rs = c.at(label, c.sizes[i]);
    std::printf("  %-8s %-18s %-*s %-20s %-*s\n", experiment::fmt_size(c.sizes[i]).c_str(),
                pm(experiment::loss_rates_percent(rs, cellular)).c_str(), paper_width,
                paper.loss[i], pm(experiment::per_run_mean_rtt_ms(rs, cellular), 1).c_str(),
                paper_width, paper.rtt[i]);
  }
}

}  // namespace mpr::bench
