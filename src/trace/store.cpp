#include "trace/store.h"

#include <algorithm>
#include <unordered_set>

namespace wearscope::trace {

void TraceStore::sort_by_time() {
  // A stable sort of an already-ordered log is the identity (tied rows
  // included), so the linear check alone settles every bundle gen writes.
  if (!std::is_sorted(proxy.begin(), proxy.end(), ByTimeThenUser{}))
    std::stable_sort(proxy.begin(), proxy.end(), ByTimeThenUser{});
  if (!std::is_sorted(mme.begin(), mme.end(), ByTimeThenUser{}))
    std::stable_sort(mme.begin(), mme.end(), ByTimeThenUser{});
  canonicalize_pools(proxy, *this);
}

bool TraceStore::is_sorted() const noexcept {
  return std::is_sorted(proxy.begin(), proxy.end(), ByTimeThenUser{}) &&
         std::is_sorted(mme.begin(), mme.end(), ByTimeThenUser{}) &&
         pools_canonical(proxy, *this);
}

TraceSummary TraceStore::summarize() const {
  TraceSummary s;
  s.proxy_records = proxy.size();
  s.mme_records = mme.size();
  s.devices = devices.size();
  s.sectors = sectors.size();

  std::unordered_set<UserId> proxy_users;
  std::unordered_set<UserId> mme_users;
  proxy_users.reserve(proxy.size());
  mme_users.reserve(mme.size());
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
