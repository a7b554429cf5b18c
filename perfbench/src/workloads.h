// The benchmark's workloads: seeded input generation, one pass through the
// library's public entry points (experiment::run_matrix / run_campaign),
// and the correctness checks every pass must satisfy.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "experiment/campaign.h"
#include "experiment/series.h"

namespace perfbench {

using mpr::experiment::CampaignAggregates;
using mpr::experiment::CampaignSpec;
using mpr::experiment::MatrixEntry;
using mpr::experiment::RunConfig;
using mpr::experiment::RunResult;
using mpr::experiment::TestbedConfig;

inline const std::vector<std::string> kWorkloadNames{"backlog", "population", "lossy"};

/// One measurement run of a pass, with its fully derived configuration.
struct Cell {
  std::string label;
  TestbedConfig testbed;
  RunConfig run;
};

/// A workload's generated inputs. Matrix workloads (backlog, lossy) go
/// through run_matrix; the campaign workload (population) through
/// run_campaign. `cells` lists every run of one pass in canonical order —
/// (label, rep) for a matrix, user index for a campaign — so a serial
/// replay through run_download reproduces the pass run by run.
struct Workload {
  std::string name;
  int jobs{1};
  std::vector<MatrixEntry> entries;
  int reps{0};
  std::uint64_t matrix_seed{0};
  std::optional<CampaignSpec> spec;
  std::string checkpoint_path;
  std::vector<Cell> cells;
  /// Generator parameters, one line, printed with the results.
  std::string params;
};

/// Builds the named workload from `seed`. `tiny` shrinks every input for
/// the self-test. Campaign checkpoints go to `out_dir`.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny,
                                     const std::string& out_dir);

/// Running correctness tally over a pass's results.
struct Tally {
  std::uint64_t runs{0};
  std::uint64_t failed{0};
  std::uint64_t digest{1469598103934665603ull};  // FNV-1a offset basis

  /// Counts one run: it fails unless it completed and delivered exactly
  /// `file_bytes`. The digest covers outcome, download_time_s bits,
  /// delivered bytes, retransmissions and reinjections.
  void add(const RunResult& r, std::uint64_t file_bytes);
  void add_bytes(const std::string& bytes);
};

/// What one pass through a public entry point produced.
struct PassResult {
  Tally tally;
  double views_checksum{0};  // keeps the analysis views observable
  std::optional<CampaignAggregates> agg;  // campaign workload only
  std::vector<std::string> errors;
};

/// One pass of the workload through run_matrix / run_campaign, ending with
/// the benches' views of the results. `forge_short_delivery` is the
/// self-test's hook: it makes the pass's first result one byte short, which
/// the correctness check must reject.
[[nodiscard]] PassResult run_pass(const Workload& wl, bool forge_short_delivery = false);

/// The benches' views of matrix results: download-time summaries, pooled
/// RTT / OFO CCDFs and per-run loss rates. Returns a checksum of them.
[[nodiscard]] double matrix_views(const std::map<std::string, std::vector<RunResult>>& results);

/// Population views: quantiles of the campaign's streaming sketches.
[[nodiscard]] double campaign_views(const CampaignAggregates& agg);

/// Folds one user's result into campaign aggregates exactly as the
/// campaign engine does for a non-quarantined user.
void merge_user(CampaignAggregates& agg, const RunResult& r);

/// Checks that the campaign checkpoint `wl` wrote at the end of a pass
/// loads and matches `agg`. Returns an error description, or "".
[[nodiscard]] std::string check_checkpoint(const Workload& wl, const CampaignAggregates& agg);

/// Hex form of a digest.
[[nodiscard]] std::string hex(std::uint64_t v);

}  // namespace perfbench
