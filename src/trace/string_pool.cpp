#include "trace/string_pool.h"

#include <utility>

#include "util/error.h"

namespace wearscope::trace {

std::uint32_t StringPool::intern(std::string_view s) {
  if (const auto it = ids_.find(s); it != ids_.end()) return it->second;
  util::require(strings_.size() < std::numeric_limits<std::uint32_t>::max(),
                "StringPool: more than 2^32-1 distinct strings");
  const auto id = static_cast<std::uint32_t>(strings_.size());
  strings_.emplace_back(s);
  ids_.emplace(strings_.back(), id);
  return id;
}

void StringPool::clear() noexcept {
  strings_.clear();
  ids_.clear();
}

void remap_ids(std::span<ProxyRecord> rows, const ProxyPools& from,
               ProxyPools& to) {
  IdRemap hosts(from.hosts.size());
  IdRemap paths(from.paths.size());
  for (ProxyRecord& r : rows) {
    r.host_id = hosts(r.host_id, from.hosts.strings(), to.hosts);
    r.path_id = paths(r.path_id, from.paths.strings(), to.paths);
  }
}

bool pools_canonical(std::span<const ProxyRecord> rows,
                     const ProxyPools& pools) noexcept {
  // Canonical numbering hands out ids 0, 1, 2, ... in row order, so each
  // row's id is either already handed out or exactly the next one.
  std::uint32_t next_host = 0;
  std::uint32_t next_path = 0;
  for (const ProxyRecord& r : rows) {
    if (r.host_id > next_host || r.path_id > next_path) return false;
    next_host += r.host_id == next_host ? 1 : 0;
    next_path += r.path_id == next_path ? 1 : 0;
  }
  return next_host == pools.hosts.size() && next_path == pools.paths.size();
}

void canonicalize_pools(std::span<ProxyRecord> rows, ProxyPools& pools) {
  if (pools_canonical(rows, pools)) return;
  for (const ProxyRecord& r : rows) {
    util::require(r.host_id < pools.hosts.size() &&
                      r.path_id < pools.paths.size(),
                  "proxy row names a host or path id its pools lack");
  }
  ProxyPools canonical;
  remap_ids(rows, pools, canonical);
  pools = std::move(canonical);
}

}  // namespace wearscope::trace
