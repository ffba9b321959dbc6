#ifndef PYTOND_PERFBENCH_ALLOC_COUNT_H_
#define PYTOND_PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench {

/// Counting global operator new, linked into the benchmark binary only.
/// Counts are per thread, so a client thread sees exactly the
/// allocations of the queries it ran inline (num_threads = 1). Counting
/// is off until EnableAllocCounting(true); while off, new costs one
/// relaxed load more than plain malloc.
void EnableAllocCounting(bool on);

/// Allocations made by the calling thread while counting was on.
uint64_t ThreadAllocs();

}  // namespace perfbench

#endif  // PYTOND_PERFBENCH_ALLOC_COUNT_H_
