// Per-layer kernels: tight loops over single public classes of one layer
// (sim::EventQueue, net::Link + net::PacketPool, tcp::SegRing,
// core::ReorderBuffer, core::LiaCc / OliaCc, analysis::QSketch), timed with
// spans. Inputs derive from the benchmark seed.
#pragma once

#include <cstdint>

#include "trace.h"

namespace perfbench {

struct KernelResults {
  double queue_ns_per_op{0};
  double link_ns_per_packet{0};
  double seg_ring_ns_per_seg{0};
  double reorder_ns_per_insert{0};
  double cc_ns_per_ack{0};
  double sketch_ns_per_sample{0};
  /// Folds every kernel's output so no loop can be optimized away.
  std::uint64_t checksum{0};
};

/// Runs each kernel several times (one span per repetition) and reports the
/// median cost per operation. `tiny` shrinks the inputs for the self-test.
[[nodiscard]] KernelResults run_kernels(std::uint64_t seed, bool tiny, SpanRecorder& rec);

}  // namespace perfbench
