// Heap-allocation telemetry for the benches.
//
// alloc_interposer.cpp replaces the global operator new/delete with
// counting forwarders. It is compiled only into the bench binaries (see
// bench/CMakeLists.txt) and perf_test, whose steady-state allocation pin
// reads it — the library code and the other tests run with the normal
// allocator — and costs one relaxed atomic increment per allocation.
//
// The [perf] trailer divides the process-wide count by events executed:
// after the zero-allocation hot-path work, steady-state packet forwarding
// performs no heap traffic, so allocs/event is dominated by campaign setup
// and result collection and should stay well below 1.
#pragma once

#include <cstdint>

namespace mpr::bench {

/// Number of global operator new calls so far in this process.
[[nodiscard]] std::uint64_t heap_allocations();

/// Total bytes requested through global operator new so far.
[[nodiscard]] std::uint64_t heap_bytes_allocated();

}  // namespace mpr::bench
