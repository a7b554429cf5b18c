// Parallel index loop for embarrassingly-parallel campaign jobs.
//
// Each simulation run is an isolated, independently-seeded job; the loop
// only distributes whole jobs across threads (no work stealing, no shared
// simulator state). Determinism therefore lives entirely with the caller:
// assemble outputs by job index and the schedule cannot leak into results.
#pragma once

#include <cstddef>
#include <functional>

namespace mpr::sim {

/// Number of jobs to use for a campaign: `requested` if > 0, otherwise the
/// MPR_JOBS environment variable, otherwise hardware_concurrency. Always
/// >= 1; MPR_JOBS=1 selects the exact single-threaded legacy path.
[[nodiscard]] unsigned effective_jobs(int requested = 0);

/// Runs `body(0) .. body(n-1)` across `jobs` threads (in the calling thread
/// when jobs <= 1 or n <= 1, preserving index order exactly). Each index is
/// executed exactly once; bodies must only touch their own slot of any
/// shared output.
///
/// Exception contract (identical at every job count, so bit-identity
/// extends to the failure path): every index runs even if some throw, and
/// afterwards the exception thrown by the *lowest* failing index is
/// rethrown to the caller. Campaign code that wants per-cell quarantine
/// instead must catch inside its own body.
void parallel_for_index(std::size_t n, unsigned jobs,
                        const std::function<void(std::size_t)>& body);

}  // namespace mpr::sim
