// Heap-allocation counting for the benchmark binary.
//
// alloc_count.cpp replaces the global operator new/delete family, so every
// allocation the library makes on a benchmark thread bumps that thread's
// counters.  Counting is always on (two thread-local increments per
// allocation): the traced and untraced runs pay the same and their counts
// can be compared exactly.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCounts {
  std::uint64_t calls{0};
  std::uint64_t bytes{0};
};

/// Allocations made so far on the calling thread.
AllocCounts thread_allocs();

}  // namespace perfbench
