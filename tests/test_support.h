// Shared helpers for the randomized test suites.
//
// Every test that draws randomness routes its seed through seed_or(), so
// a failure can be reproduced exactly:
//
//   const std::uint64_t seed = wearscope::testing::seed_or(55);
//   WEARSCOPE_SCOPED_SEED(seed);   // failure output names the seed
//   ...
//
// and re-run with the printed seed via the environment:
//
//   WEARSCOPE_TEST_SEED=0xBADC0FFEE ctest -R SnapshotStoreStress ...
//
// The override applies to every seed_or() call in the process, which is
// what you want when replaying one failing test in isolation.
//
// Proxy rows name their host and URL path by pool id (trace/string_pool.h);
// set_strings() is the one way tests give a row literal strings.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "trace/records.h"
#include "trace/string_pool.h"
#include "util/error.h"

namespace wearscope::testing {

/// Points `r`'s host and URL path at `host` and `path`, interned into
/// `pools` (a TraceStore, a fed feed, or a bare ProxyPools).
inline void set_strings(trace::ProxyRecord& r, trace::ProxyPools& pools,
                        std::string_view host, std::string_view path = {}) {
  r.host_id = pools.hosts.intern(host);
  r.path_id = pools.paths.intern(path);
}

/// The test seed: `fallback` unless the WEARSCOPE_TEST_SEED environment
/// variable is set (decimal or 0x-prefixed hex), which wins.
[[nodiscard]] inline std::uint64_t seed_or(std::uint64_t fallback) {
  const char* env = std::getenv("WEARSCOPE_TEST_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  const std::string text(env);
  std::size_t consumed = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &consumed, 0);  // base 0: decimal or 0x hex.
  } catch (...) {
    consumed = 0;
  }
  util::require(consumed == text.size(),
                "WEARSCOPE_TEST_SEED: expected a decimal or 0x-hex "
                "integer, got '" + text + "'");
  return value;
}

/// One-line reproduction hint for failure messages.
[[nodiscard]] inline std::string seed_note(std::uint64_t seed) {
  return "seed=" + std::to_string(seed) +
         " (re-run with WEARSCOPE_TEST_SEED=" + std::to_string(seed) + ")";
}

}  // namespace wearscope::testing

/// Attaches the seed to every assertion failure in the enclosing scope.
#define WEARSCOPE_SCOPED_SEED(seed) \
  SCOPED_TRACE(::wearscope::testing::seed_note(seed))
