// Stable key -> shard assignment shared by every parallel subsystem.
//
// The split-mix finalizer gives an identical assignment on every platform
// and for every run, so sharded builds are reproducible; live::IngestRouter
// partitions its rings with it and fed partitions a cover the same way
// (the shard-by-user discipline: all state of one user lives on exactly
// one shard, so workers share nothing).
#pragma once

#include <cstddef>
#include <cstdint>

namespace wearscope::par {

/// Deterministic `key -> [0, shards)` hash. `shards` must be >= 1.
[[nodiscard]] constexpr std::size_t shard_of(std::uint64_t key,
                                             std::size_t shards) noexcept {
  std::uint64_t x = key + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shards);
}

}  // namespace wearscope::par
