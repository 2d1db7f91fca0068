#include "core/sessionize.h"

#include <algorithm>
#include <unordered_map>

#include "util/error.h"

namespace wearscope::core {

std::vector<Usage> sessionize_user(
    std::span<const trace::ProxyRecord> log,
    std::span<const std::uint32_t> rows, std::span<const EndpointClass> apps,
    util::SimTime gap_s) {
  util::require(rows.size() == apps.size(),
                "sessionize_user: rows/apps size mismatch");
  std::vector<Usage> closed;
  // One open usage per app (usages of different apps may interleave).
  std::unordered_map<appdb::AppId, Usage> open;

  for (std::size_t i = 0; i < rows.size(); ++i) {
    const trace::ProxyRecord& r = log[rows[i]];
    const appdb::AppId app = apps[i].app;
    auto it = open.find(app);
    if (it != open.end() && r.timestamp - it->second.end > gap_s) {
      closed.push_back(it->second);
      open.erase(it);
      it = open.end();
    }
    if (it == open.end()) {
      Usage u;
      u.user_id = r.user_id;
      u.app = app;
      u.start = r.timestamp;
      u.end = r.timestamp;
      it = open.emplace(app, u).first;
    }
    Usage& u = it->second;
    u.end = std::max(u.end, r.timestamp);
    u.transactions += 1;
    u.bytes += r.bytes_total();
  }
  for (auto& [app, usage] : open) closed.push_back(usage);
  std::sort(closed.begin(), closed.end(),
            [](const Usage& a, const Usage& b) { return a.start < b.start; });
  return closed;
}

}  // namespace wearscope::core
