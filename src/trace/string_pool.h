// Deduplicated string pools for the proxy log's host and URL-path fields.
//
// A capture names a few hundred distinct hosts and paths across millions
// of proxy transactions, so ProxyRecord carries 32-bit ids and each
// string lives once, in a StringPool.  A store keeps two (ProxyPools:
// `hosts` and `paths`); every decode unit — a v2 block, a v3 row group, a
// whole v1 or CSV log — interns into pools of its own, and the loader
// merges them into the store's pools in unit order through IdRemap, so
// the result is the same for any thread count.
//
// Canonical pools: each pool lists exactly the strings the rows use, in
// the order they first appear over the rows.  TraceStore::sort_by_time()
// establishes it (a no-op check for a generator-written bundle), so two
// stores holding the same capture carry equal rows AND equal pools
// whatever format they were loaded from, and so identical reports.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "trace/records.h"
#include "util/strings.h"

namespace wearscope::trace {

/// An append-only, deduplicated list of strings addressed by dense ids.
class StringPool {
 public:
  /// The id of `s`, appended as the next id when the pool lacks it.
  std::uint32_t intern(std::string_view s);

  /// The string of `id` (which must be below size()).
  [[nodiscard]] const std::string& operator[](std::uint32_t id) const {
    return strings_[id];
  }
  [[nodiscard]] std::size_t size() const noexcept { return strings_.size(); }
  [[nodiscard]] bool empty() const noexcept { return strings_.empty(); }
  /// Every entry, in id order.
  [[nodiscard]] const std::vector<std::string>& strings() const noexcept {
    return strings_;
  }
  void clear() noexcept;

  /// Pools are equal when they list the same strings in the same order.
  friend bool operator==(const StringPool& a, const StringPool& b) {
    return a.strings_ == b.strings_;
  }

 private:
  std::vector<std::string> strings_;
  std::unordered_map<std::string, std::uint32_t, util::StringHash,
                     std::equal_to<>>
      ids_;
};

/// The two pools ProxyRecord ids index: `host_id` into `hosts`, `path_id`
/// into `paths`.
struct ProxyPools {
  StringPool hosts;  ///< SNI (HTTPS) or URL host (HTTP).
  StringPool paths;  ///< URL paths; "" for HTTPS.

  friend bool operator==(const ProxyPools&, const ProxyPools&) = default;
};

/// Record types that hold no pooled ids: every one except ProxyRecord.
/// Readers and writers of these need no pools.
template <typename Record>
concept PoolFree = !std::same_as<Record, ProxyRecord>;

/// Lazily translates the ids of one source table into a pool: a source
/// entry is interned the first time one of its ids is translated, so the
/// pool grows in first-use order, gains no unused entry, and a repeated
/// source entry maps to the one id its string already has.
class IdRemap {
 public:
  explicit IdRemap(std::size_t source_size = 0)
      : ids_(source_size, kUnmapped) {}

  /// The id in `to` of source entry `id` of `from`.
  std::uint32_t operator()(std::uint32_t id,
                           const std::vector<std::string>& from,
                           StringPool& to) {
    std::uint32_t& slot = ids_[id];
    if (slot == kUnmapped) slot = to.intern(from[id]);
    return slot;
  }

  /// The translation so far: entry `id` of the source table holds its id
  /// in the pool, for every source entry translated.
  [[nodiscard]] std::span<const std::uint32_t> table() const noexcept {
    return ids_;
  }

 private:
  static constexpr std::uint32_t kUnmapped =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> ids_;
};

/// Rewrites the ids of `rows`, which index `from`, into `to` (first-use
/// order, see IdRemap).
void remap_ids(std::span<ProxyRecord> rows, const ProxyPools& from,
               ProxyPools& to);

/// True when both pools are canonical over `rows`: every entry is used,
/// and entries are numbered in order of first appearance.  One linear
/// pass over the ids; no string is touched.
[[nodiscard]] bool pools_canonical(std::span<const ProxyRecord> rows,
                                   const ProxyPools& pools) noexcept;

/// Renumbers `rows` and rebuilds `pools` so both are canonical; a no-op
/// (after the pools_canonical check) when they already are.
void canonicalize_pools(std::span<ProxyRecord> rows, ProxyPools& pools);

}  // namespace wearscope::trace
