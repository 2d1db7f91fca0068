// The checked-in v1/v2 trace fixtures (tests/data/legacy/README.md): the
// only source of legacy-format bytes, since v3 is the one binary version
// written.  Every fixture holds the record set of fixed_store().
//
//   legacy_dir() / "v1"        a v1 bundle (all four logs)
//   legacy_dir() / "v2"        the same bundle as v2, one block per log
//   legacy_dir() / "v2_units"  proxy.bin and mme.bin as v2, one record per
//                              block (40 and 30 blocks)
//
// Shapes the fixtures lack are made by editing their bytes in the test
// that needs them.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "test_support.h"
#include "trace/store.h"

namespace wearscope::testing {

/// tests/data/legacy, from the WEARSCOPE_LEGACY_DIR compile definition.
inline std::filesystem::path legacy_dir() {
  return std::filesystem::path(WEARSCOPE_LEGACY_DIR);
}

/// The whole content of `path` (empty when it cannot be read).
inline std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The records every fixture holds: 40 proxy rows over 7 users, 3 TACs and
/// 5 hosts (every third path empty), 30 MME rows, 2 DeviceDB rows and 5
/// sectors, in time order, with pools interned in row order (canonical).
inline trace::TraceStore fixed_store() {
  trace::TraceStore store;
  for (std::uint32_t i = 0; i < 40; ++i) {
    trace::ProxyRecord r;
    r.timestamp = static_cast<util::SimTime>(1000 + i * 37);
    r.user_id = 1'000'000 + i % 7;
    r.tac = 35254208 + i % 3;
    r.protocol = i % 2 == 0 ? trace::Protocol::kHttps : trace::Protocol::kHttp;
    set_strings(r, store, "host" + std::to_string(i % 5) + ".example",
                i % 3 == 0 ? "" : "/p/" + std::to_string(i));
    r.bytes_up = i * 11;
    r.bytes_down = i * 101 + 1;
    r.duration_ms = i + 1;
    store.proxy.push_back(r);
  }
  for (std::uint32_t i = 0; i < 30; ++i) {
    store.mme.push_back({static_cast<util::SimTime>(500 + i * 60),
                         1'000'000 + i % 6, 35254208 + i % 2,
                         static_cast<trace::MmeEvent>(i % 4), 1 + i % 5});
  }
  store.devices.push_back({35254208, "Gear S3 frontier LTE", "Samsung",
                           "Tizen"});
  store.devices.push_back({35254209, "Watch Series 3", "Apple", "watchOS"});
  for (std::uint32_t s = 1; s <= 5; ++s) {
    store.sectors.push_back({s, {40.0 + s * 0.125, -3.5 - s * 0.25}});
  }
  return store;
}

/// Fills `dir` (created if absent) with a v2 bundle of many units per
/// event log: v2_units' proxy and MME logs plus v2's devices and sectors.
inline void copy_units_bundle(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  const auto copy = [&dir](const char* from, const char* file) {
    std::filesystem::copy_file(legacy_dir() / from / file, dir / file,
                               std::filesystem::copy_options::
                                   overwrite_existing);
  };
  copy("v2_units", "proxy.bin");
  copy("v2_units", "mme.bin");
  copy("v2", "devices.bin");
  copy("v2", "sectors.bin");
}

}  // namespace wearscope::testing
