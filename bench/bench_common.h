// Shared helpers of the google-benchmark perf suites: the machine facts
// every BENCH_*.json records.
#pragma once

#include <cstddef>
#include <cstdio>

namespace wearscope::bench {

/// Writes the `"hardware_concurrency": N,`, `"thread_sweep_valid": B,`
/// and `"peak_rss_bytes": B,` lines every BENCH_*.json carries (sweep
/// shapes are meaningless without the first two; memory claims — the
/// sketch mode's whole point — without the third) and returns N.
/// thread_sweep_valid is false on a single-core machine, where every
/// parallel sweep is flat no matter how good the code is — consumers
/// must not read such a point as a scaling regression (also warned on
/// stderr).  Peak RSS is the process high-water mark up to the call
/// (getrusage), so call this after the measured work ran.
unsigned emit_hardware_concurrency(std::FILE* out);

}  // namespace wearscope::bench
