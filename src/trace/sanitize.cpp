#include "trace/sanitize.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "util/rng.h"

namespace wearscope::trace {

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  return util::splitmix64(h ^ v);
}

std::uint64_t hash_of(const ProxyRecord& r) noexcept {
  std::uint64_t h = 0x50525859;  // "PRXY"
  h = mix(h, static_cast<std::uint64_t>(r.timestamp));
  h = mix(h, r.user_id);
  h = mix(h, r.tac);
  h = mix(h, static_cast<std::uint64_t>(r.protocol));
  h = mix(h, r.host_id);  // pools are deduplicated: equal ids, equal strings
  h = mix(h, r.path_id);
  h = mix(h, r.bytes_up);
  h = mix(h, r.bytes_down);
  h = mix(h, r.duration_ms);
  return h;
}

std::uint64_t hash_of(const MmeRecord& r) noexcept {
  std::uint64_t h = 0x4d4d4531;  // "MME1"
  h = mix(h, static_cast<std::uint64_t>(r.timestamp));
  h = mix(h, r.user_id);
  h = mix(h, r.tac);
  h = mix(h, static_cast<std::uint64_t>(r.event));
  h = mix(h, r.sector_id);
  return h;
}

/// Exact-duplicate detector: hash buckets with full-record equality on
/// collision, so a 64-bit hash collision can never drop a legitimate
/// record (that would silently break the chaos differential invariant).
template <typename Record>
class DedupSet {
 public:
  /// True when `r` was not seen before (and records it).
  bool insert(const Record& r) {
    std::vector<Record>& bucket = buckets_[hash_of(r)];
    for (const Record& seen : bucket) {
      if (seen == r) return false;
    }
    bucket.push_back(r);
    return true;
  }

 private:
  std::unordered_map<std::uint64_t, std::vector<Record>> buckets_;
};

/// Sanitizes one event log.  `validate` returns the quarantine counter to
/// bump for a structurally invalid record, or nullptr when it is fine.
template <typename Record, typename Validate>
Rows<Record> sanitize_log(Rows<Record>&& in, const SanitizeOptions& opt,
                          QuarantineStats& q, Validate validate) {
  struct Pending {
    util::SimTime ts = 0;
    std::uint64_t seq = 0;
    Record rec;
  };
  // std::make_heap comparator: "later than" puts the earliest (ts, seq) at
  // the front.  A manual vector heap (instead of std::priority_queue) lets
  // the popped element be moved out rather than copied.
  struct Later {
    bool operator()(const Pending& a, const Pending& b) const noexcept {
      return a.ts != b.ts ? a.ts > b.ts : a.seq > b.seq;
    }
  };
  std::vector<Pending> window;
  const auto pop_earliest = [&window]() -> Record {
    std::pop_heap(window.begin(), window.end(), Later{});
    Record rec = std::move(window.back().rec);
    window.pop_back();
    return rec;
  };
  DedupSet<Record> seen;
  Rows<Record> out;
  out.reserve(in.size());
  std::optional<util::SimTime> last_emitted;
  std::optional<util::SimTime> max_arrival;
  std::uint64_t seq = 0;

  for (Record& r : in) {
    const util::SimTime ts = r.timestamp;
    if (std::uint64_t* counter = validate(r)) {
      ++*counter;
      continue;
    }
    if (opt.drop_duplicates && !seen.insert(r)) {
      ++q.duplicates;
      continue;
    }
    if (last_emitted && ts < *last_emitted) {
      // Older than records already released from the reorder window: the
      // sorted prefix is published, so this can only be quarantined.
      ++q.regressions;
      continue;
    }
    if (max_arrival && ts < *max_arrival) ++q.reordered;
    max_arrival = max_arrival ? std::max(*max_arrival, ts) : ts;
    window.push_back(Pending{ts, seq++, std::move(r)});
    std::push_heap(window.begin(), window.end(), Later{});
    if (window.size() > opt.reorder_window) {
      last_emitted = window.front().ts;
      out.push_back(pop_earliest());
    }
  }
  while (!window.empty()) out.push_back(pop_earliest());
  return out;
}

}  // namespace

bool host_is_valid(const std::string& host) noexcept {
  if (host.empty()) return false;
  for (const char c : host) {
    if (c < 0x21 || c > 0x7e) return false;
  }
  return true;
}

QuarantineStats sanitize_store(TraceStore& store,
                               const SanitizeOptions& options) {
  QuarantineStats q;

  // The DeviceDB snapshot defines the known-TAC universe.  An empty
  // snapshot disables the filter: quarantining an entire capture because
  // the device table is missing would be degradation without the grace.
  std::unordered_set<Tac> known_tacs;
  known_tacs.reserve(store.devices.size());
  for (const DeviceRecord& d : store.devices) known_tacs.insert(d.tac);
  const bool check_tac = options.drop_unknown_tac && !known_tacs.empty();
  // One validity check per distinct host, not per record.
  std::vector<std::uint8_t> host_ok(store.hosts.size());
  for (std::uint32_t id = 0; id < store.hosts.size(); ++id)
    host_ok[id] = host_is_valid(store.hosts[id]) ? 1 : 0;

  store.proxy = sanitize_log<ProxyRecord>(
      std::move(store.proxy), options, q,
      [&](const ProxyRecord& r) -> std::uint64_t* {
        if (options.drop_bad_host && host_ok[r.host_id] == 0)
          return &q.bad_host;
        if (check_tac && !known_tacs.contains(r.tac)) return &q.unknown_tac;
        return nullptr;
      });
  store.mme = sanitize_log<MmeRecord>(std::move(store.mme), options, q,
                           [&](const MmeRecord& r) -> std::uint64_t* {
                             if (check_tac && !known_tacs.contains(r.tac))
                               return &q.unknown_tac;
                             return nullptr;
                           });
  // Dropped records may have been the last users of a host or path.
  canonicalize_pools(store.proxy, store);
  return q;
}

std::string to_text(const QuarantineStats& s) {
  if (!s.any()) return {};
  std::string out = "quarantine:\n";
  for (const QuarantineCounter& c : kQuarantineCounters) {
    const std::uint64_t n = s.*c.member;
    if (n == 0) continue;
    out += "  ";
    out += c.label;
    out += " : ";
    out += std::to_string(n);
    out += '\n';
  }
  return out;
}

}  // namespace wearscope::trace
