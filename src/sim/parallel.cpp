#include "sim/parallel.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace mpr::sim {

unsigned effective_jobs(int requested) {
  if (requested > 0) return static_cast<unsigned>(requested);
  if (const char* env = std::getenv("MPR_JOBS"); env != nullptr) {
    const int v = std::atoi(env);
    if (v > 0) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void parallel_for_index(std::size_t n, unsigned jobs,
                        const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  // Per-index exception capture, schedule-invariantly reduced to the lowest
  // failing index: every index runs regardless of other indices' failures,
  // and the winner does not depend on which worker noticed a throw first.
  std::mutex err_mu;
  std::size_t err_index = n;
  std::exception_ptr err;
  const auto guarded = [&](std::size_t i) {
    try {
      body(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock{err_mu};
      if (i < err_index) {
        err_index = i;
        err = std::current_exception();
      }
    }
  };
  if (jobs <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) guarded(i);
  } else {
    if (static_cast<std::size_t>(jobs) > n) jobs = static_cast<unsigned>(n);
    // One counter, one thread per job: each worker claims the next
    // unclaimed index until the range is exhausted. guarded() never throws,
    // so every worker reaches its join.
    std::atomic<std::size_t> next{0};
    const auto claim_loop = [&] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        guarded(i);
      }
    };
    std::vector<std::thread> workers;
    workers.reserve(jobs);
    try {
      for (unsigned w = 0; w < jobs; ++w) workers.emplace_back(claim_loop);
    } catch (...) {
      // No thread to be had: the calling thread claims indices beside the
      // workers that did start, so every index still runs exactly once.
      claim_loop();
    }
    for (std::thread& t : workers) t.join();
  }
  if (err != nullptr) std::rethrow_exception(err);
}

}  // namespace mpr::sim
