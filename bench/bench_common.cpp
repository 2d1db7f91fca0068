#include "bench_common.h"

#include <cstdio>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace wearscope::bench {

namespace {

/// Process peak resident set size in bytes (0 where unavailable).
std::size_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace

unsigned emit_hardware_concurrency(std::FILE* out) {
  const unsigned hc = std::thread::hardware_concurrency();
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n", hc);
  std::fprintf(out, "  \"thread_sweep_valid\": %s,\n",
               hc <= 1 ? "false" : "true");
  std::fprintf(out, "  \"peak_rss_bytes\": %zu,\n", peak_rss_bytes());
  if (hc <= 1) {
    std::fprintf(stderr,
                 "warning: hardware_concurrency=%u — parallel sweeps are "
                 "flat on a single-core machine; do not read this point "
                 "as a scaling regression\n",
                 hc);
  }
  return hc;
}

}  // namespace wearscope::bench
