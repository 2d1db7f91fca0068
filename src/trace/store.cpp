#include "trace/store.h"

#include <algorithm>
#include <limits>
#include <span>
#include <thread>
#include <unordered_set>

#include "par/task_pool.h"

namespace wearscope::trace {

namespace {

/// Rows below which one more slice of the sortedness check would cost more
/// to start than it saves.
constexpr std::size_t kMinSliceRows = std::size_t{1} << 16;

/// No row of the slice uses the pool id.
constexpr std::size_t kUnused = std::numeric_limits<std::size_t>::max();

/// What one proxy row slice reports to the merge of is_sorted_in_slices.
struct ProxySlice {
  /// The slice's rows are in canonical order, the first one after the
  /// row before the slice too, and every id is inside its pool.
  bool ok = true;
  /// Per pool id, the row of its first use in the slice, or kUnused (both
  /// empty for a slice that never ran).
  std::vector<std::size_t> first_host;
  std::vector<std::size_t> first_path;
};

ProxySlice check_proxy_slice(std::span<const ProxyRecord> rows, std::size_t lo,
                             std::size_t hi, const ProxyPools& pools) {
  ProxySlice slice;
  slice.first_host.assign(pools.hosts.size(), kUnused);
  slice.first_path.assign(pools.paths.size(), kUnused);
  for (std::size_t i = lo; i < hi; ++i) {
    const ProxyRecord& r = rows[i];
    if ((i > 0 && ByTimeThenUser{}(r, rows[i - 1])) ||
        r.host_id >= slice.first_host.size() ||
        r.path_id >= slice.first_path.size()) {
      slice.ok = false;
      return slice;
    }
    std::size_t& host = slice.first_host[r.host_id];
    if (host == kUnused) host = i;
    std::size_t& path = slice.first_path[r.path_id];
    if (path == kUnused) path = i;
  }
  return slice;
}

/// Canonical numbering hands out ids 0, 1, 2, ... in row order, so a pool
/// is canonical exactly when every id is used and the first uses of ids
/// 0, 1, 2, ... come in increasing row order.  Slices cover increasing
/// row ranges, so an id's first use is its first use in the first slice
/// that uses it.
bool first_uses_ascend(const std::vector<ProxySlice>& slices,
                       std::vector<std::size_t> ProxySlice::*first,
                       std::size_t pool_size) {
  std::size_t previous = 0;
  for (std::size_t id = 0; id < pool_size; ++id) {
    std::size_t at = kUnused;
    for (const ProxySlice& slice : slices) {
      const std::vector<std::size_t>& rows = slice.*first;
      if (!rows.empty() && rows[id] != kUnused) {
        at = rows[id];
        break;
      }
    }
    if (at == kUnused || (id > 0 && at <= previous)) return false;
    previous = at;
  }
  return true;
}

}  // namespace

void TraceStore::sort_by_time() {
  if (is_sorted()) return;
  // A stable sort of an already-ordered log is the identity (tied rows
  // included), so each log is sorted only when its own check fails.
  if (!std::is_sorted(proxy.begin(), proxy.end(), ByTimeThenUser{}))
    std::stable_sort(proxy.begin(), proxy.end(), ByTimeThenUser{});
  if (!std::is_sorted(mme.begin(), mme.end(), ByTimeThenUser{}))
    std::stable_sort(mme.begin(), mme.end(), ByTimeThenUser{});
  canonicalize_pools(proxy, *this);
}

bool TraceStore::is_sorted() const {
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t rows = std::max(proxy.size(), mme.size());
  return is_sorted_in_slices(
      *this, std::clamp<std::size_t>(rows / kMinSliceRows, 1, cores));
}

bool is_sorted_in_slices(const TraceStore& store, std::size_t slices) {
  const std::span<const ProxyRecord> proxy = store.proxy;
  const std::span<const MmeRecord> mme = store.mme;
  // Every pool entry must be used, so a pool larger than the log is not
  // canonical; this also bounds the slices' first-use tables by the rows.
  if (store.hosts.size() > proxy.size() || store.paths.size() > proxy.size())
    return false;
  // Each slice also orders its first row after the row before it, so the
  // slices together check every adjacent pair.
  par::TaskPool pool(slices);
  std::vector<ProxySlice> proxy_slices(pool.threads());
  pool.for_slices(proxy.size(),
                  [&](std::size_t lo, std::size_t hi, std::size_t s) {
                    proxy_slices[s] = check_proxy_slice(proxy, lo, hi, store);
                  });
  // One flag per MME slice (not vector<bool>: slices write concurrently).
  std::vector<std::uint8_t> mme_ok(pool.threads(), 1);
  pool.for_slices(mme.size(),
                  [&](std::size_t lo, std::size_t hi, std::size_t s) {
                    const std::size_t from = lo == 0 ? 0 : lo - 1;
                    const std::span<const MmeRecord> rows =
                        mme.subspan(from, hi - from);
                    mme_ok[s] = std::is_sorted(rows.begin(), rows.end(),
                                               ByTimeThenUser{});
                  });
  return std::all_of(proxy_slices.begin(), proxy_slices.end(),
                     [](const ProxySlice& slice) { return slice.ok; }) &&
         std::all_of(mme_ok.begin(), mme_ok.end(),
                     [](std::uint8_t ok) { return ok != 0; }) &&
         first_uses_ascend(proxy_slices, &ProxySlice::first_host,
                           store.hosts.size()) &&
         first_uses_ascend(proxy_slices, &ProxySlice::first_path,
                           store.paths.size());
}

TraceSummary TraceStore::summarize() const {
  TraceSummary s;
  s.proxy_records = proxy.size();
  s.mme_records = mme.size();
  s.devices = devices.size();
  s.sectors = sectors.size();

  std::unordered_set<UserId> proxy_users;
  std::unordered_set<UserId> mme_users;
  // Seed the time span from the first available record so the loops stay
  // branch-light (no per-record "first" flag).
  if (!proxy.empty()) {
    s.first_timestamp = proxy.front().timestamp;
    s.last_timestamp = proxy.front().timestamp;
  } else if (!mme.empty()) {
    s.first_timestamp = mme.front().timestamp;
    s.last_timestamp = mme.front().timestamp;
  }
  for (const ProxyRecord& r : proxy) {
    proxy_users.insert(r.user_id);
    s.total_bytes += r.bytes_total();
    s.first_timestamp = std::min(s.first_timestamp, r.timestamp);
    s.last_timestamp = std::max(s.last_timestamp, r.timestamp);
  }
  for (const MmeRecord& r : mme) {
    mme_users.insert(r.user_id);
    s.first_timestamp = std::min(s.first_timestamp, r.timestamp);
    s.last_timestamp = std::max(s.last_timestamp, r.timestamp);
  }
  s.distinct_proxy_users = proxy_users.size();
  s.distinct_mme_users = mme_users.size();
  return s;
}

void TraceStore::rebuild_indexes() const {
  device_index_.clear();
  sector_index_.clear();
  device_index_.reserve(devices.size());
  sector_index_.reserve(sectors.size());
  for (std::size_t i = 0; i < devices.size(); ++i)
    device_index_.emplace(devices[i].tac, i);
  for (std::size_t i = 0; i < sectors.size(); ++i)
    sector_index_.emplace(sectors[i].sector_id, i);
  indexes_built_ = true;
}

std::optional<DeviceRecord> TraceStore::find_device(Tac tac) const {
  if (!indexes_built_) rebuild_indexes();
  const auto it = device_index_.find(tac);
  if (it == device_index_.end()) return std::nullopt;
  return devices[it->second];
}

std::optional<SectorInfo> TraceStore::find_sector(SectorId id) const {
  if (!indexes_built_) rebuild_indexes();
  const auto it = sector_index_.find(id);
  if (it == sector_index_.end()) return std::nullopt;
  return sectors[it->second];
}

}  // namespace wearscope::trace
