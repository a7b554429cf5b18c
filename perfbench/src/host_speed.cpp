#include "host_speed.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

namespace {

// Keeps the loop's result observable so it cannot be optimized away.
std::atomic<std::uint64_t> g_sink{0};

/// A small discrete-event loop in the simulator's style: a timestamp heap,
/// scattered updates to a 256 KiB state table, and a node-based map that
/// allocates and frees as it grows and shrinks.
void calibration_loop() {
  // ~80 ms on a 2.1 GHz Xeon core: long enough that a brief interruption
  // does not decide the reading.
  constexpr int kEvents = 600'000;
  constexpr std::uint32_t kStateMask = (1u << 16) - 1;
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::vector<std::uint32_t> state(kStateMask + 1);
  std::map<std::uint64_t, std::uint32_t> held;
  std::uint64_t x = 88172645463325252ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t id = 0; id < 1024; ++id) heap.emplace(next() & 0xffff, id);
  for (int i = 0; i < kEvents; ++i) {
    const auto [t, id] = heap.top();
    heap.pop();
    const std::uint64_t r = next();
    state[(id * 2654435761u + static_cast<std::uint32_t>(r)) & kStateMask] += id;
    if ((r & 7) == 0) {
      held.emplace(r >> 40, id);
    } else if ((r & 7) == 1 && !held.empty()) {
      held.erase(held.begin());
    }
    heap.emplace(t + (r & 0xffff), id);
  }
  std::uint64_t sum = held.size();
  for (const std::uint32_t v : state) sum += v;
  g_sink.fetch_add(sum, std::memory_order_relaxed);
}

}  // namespace

double calibration_rate() {
  const std::int64_t t0 = now_ns();
  calibration_loop();
  return 1e9 / static_cast<double>(now_ns() - t0);
}

}  // namespace perfbench
