// Host-side instrumentation of the benchmark: a per-thread heap allocation
// counter (this binary replaces the global operator new) and an in-memory
// span recorder that is written out once, when the benchmark ends.
//
// Spans are recorded only around calls the benchmark itself makes into the
// library's public functions; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Heap allocations made so far by the calling thread. Thread-local, so the
/// campaign's worker threads never contend on (or race over) a counter.
[[nodiscard]] std::uint64_t thread_allocations();

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name{""};
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::int32_t parent{-1};  // index of the enclosing span, -1 for a root
  std::int64_t run_id{-1};  // cell / user index, -1 when not tied to one run
  std::uint64_t allocs{0};  // heap allocations inside the span (recording thread)

  [[nodiscard]] double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Spans of the recording (main) thread, kept in memory until write_jsonl().
class SpanRecorder {
 public:
  SpanRecorder() { spans_.reserve(1 << 16); }

  /// Opens a span and returns its id (for end() and as a child's parent).
  int begin(const char* name, int parent = -1, std::int64_t run_id = -1);
  void end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Every span called `name`, in recording order.
  [[nodiscard]] std::vector<Span> named(std::string_view name) const;

  /// One JSON object per line: name, start/end (ns, steady clock), parent,
  /// run id and allocation count.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
