#include "core/app_id.h"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

#include "util/strings.h"

// (registrable_domain lives in util/strings.h)

namespace wearscope::core {

namespace {

/// Third-party pool with heterogeneous lookup: suffix membership tests
/// probe with string_view, allocating nothing.
using DomainPool =
    std::unordered_set<std::string, util::StringHash, std::equal_to<>>;

DomainPool make_pool(std::span<const std::string_view> domains) {
  DomainPool out;
  out.reserve(domains.size());
  for (const std::string_view d : domains) out.insert(util::to_lower(d));
  return out;
}

const DomainPool& utilities_pool() {
  static const DomainPool pool = make_pool(appdb::utility_domains());
  return pool;
}
const DomainPool& advertising_pool() {
  static const DomainPool pool = make_pool(appdb::advertising_domains());
  return pool;
}
const DomainPool& analytics_pool() {
  static const DomainPool pool = make_pool(appdb::analytics_domains());
  return pool;
}

/// Calls `fn(suffix)` for every dot-suffix of `host_lower`
/// ("a.b.c" -> "a.b.c", "b.c", "c") until fn returns true.
template <typename Fn>
bool for_each_suffix(std::string_view host_lower, Fn&& fn) {
  std::string_view s = host_lower;
  for (;;) {
    if (fn(s)) return true;
    const auto dot = s.find('.');
    if (dot == std::string_view::npos) return false;
    s.remove_prefix(dot + 1);
  }
}

bool pool_matches(std::string_view host_lower, const DomainPool& pool) {
  return for_each_suffix(host_lower, [&](std::string_view s) {
    return pool.contains(s);
  });
}

/// Reusable lower-case scratch: classification runs once per proxy
/// transaction, so the buffer is thread-local rather than per-call — the
/// hot path allocates only while a host longer than any prior one grows
/// the capacity.
std::string& lower_scratch() {
  static thread_local std::string buf;
  return buf;
}

}  // namespace

AppSignatureTable::AppSignatureTable(const appdb::AppCatalog& catalog,
                                     double coverage) {
  app_names_.reserve(catalog.size());
  app_categories_.reserve(catalog.size());
  std::size_t rule_total = 0;
  for (const appdb::AppInfo& app : catalog.apps()) {
    if (app.in_signature_table) rule_total += app.domains.size();
  }
  const auto rule_budget = static_cast<std::size_t>(
      static_cast<double>(rule_total) * std::clamp(coverage, 0.0, 1.0));

  for (const appdb::AppInfo& app : catalog.apps()) {
    app_names_.push_back(app.name);
    app_categories_.push_back(app.category);
    if (!app.in_signature_table) continue;
    for (const std::string& domain : app.domains) {
      if (rules_.size() >= rule_budget) break;
      const std::string suffix = util::to_lower(domain);
      rules_.push_back(Rule{suffix, app.id});
      rule_index_.emplace(suffix, app.id);
      // Registrable-domain fallback (matches coarsened/anonymized hosts):
      // a domain shared by several apps is ambiguous and never matches.
      const std::string reg = util::registrable_domain(suffix);
      const auto [it, inserted] = registrable_index_.emplace(reg, app.id);
      if (!inserted && it->second != app.id) it->second = kUnknownApp;
    }
  }

  // Distinct mapped apps, precomputed so the accessor is O(1).
  std::vector<appdb::AppId> ids;
  ids.reserve(rules_.size());
  for (const Rule& r : rules_) ids.push_back(r.app);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  mapped_app_count_ = ids.size();
}

appdb::AppId AppSignatureTable::match_app_lower(
    std::string_view host_lower) const {
  appdb::AppId found = kUnknownApp;
  for_each_suffix(host_lower, [&](std::string_view s) {
    const auto it = rule_index_.find(s);
    if (it == rule_index_.end()) return false;
    found = it->second;
    return true;
  });
  if (found != kUnknownApp) return found;
  // Fallback for coarsened hosts (e.g. an anonymized trace where
  // "api.weather.com" became "weather.com"): match by registrable domain
  // when exactly one app owns it.
  const auto it =
      registrable_index_.find(util::registrable_domain_of_lower(host_lower));
  if (it != registrable_index_.end() && it->second != kUnknownApp) {
    return it->second;
  }
  return kUnknownApp;
}

std::optional<appdb::AppId> AppSignatureTable::match_app(
    std::string_view host) const {
  const std::string_view lower = util::to_lower_into(host, lower_scratch());
  const appdb::AppId found = match_app_lower(lower);
  if (found == kUnknownApp) return std::nullopt;
  return found;
}

EndpointClass AppSignatureTable::classify_host(std::string_view host) const {
  const std::string_view lower = util::to_lower_into(host, lower_scratch());
  if (const appdb::AppId app = match_app_lower(lower); app != kUnknownApp) {
    return EndpointClass{appdb::TransactionClass::kApplication, app};
  }
  if (pool_matches(lower, utilities_pool())) {
    return EndpointClass{appdb::TransactionClass::kUtilities, kUnknownApp};
  }
  if (pool_matches(lower, advertising_pool()) ||
      util::has_label_lower(lower, "ads") ||
      util::has_label_lower(lower, "adserver")) {
    return EndpointClass{appdb::TransactionClass::kAdvertising, kUnknownApp};
  }
  if (pool_matches(lower, analytics_pool()) ||
      util::has_label_lower(lower, "analytics") ||
      util::has_label_lower(lower, "metrics") ||
      util::has_label_lower(lower, "telemetry")) {
    return EndpointClass{appdb::TransactionClass::kAnalytics, kUnknownApp};
  }
  // Unmatched hosts are treated as first-party servers of unmapped apps.
  return EndpointClass{appdb::TransactionClass::kApplication, kUnknownApp};
}

std::string_view AppSignatureTable::app_name(appdb::AppId id) const {
  if (id == kUnknownApp || id >= app_names_.size()) return "Unknown";
  return app_names_[id];
}

std::optional<appdb::Category> AppSignatureTable::app_category(
    appdb::AppId id) const {
  if (id == kUnknownApp || id >= app_categories_.size()) return std::nullopt;
  return app_categories_[id];
}

EndpointClass HostClassCache::classify(std::uint32_t host_id) {
  if (host_id >= memo_.size()) memo_.resize(hosts_->size());
  std::optional<EndpointClass>& slot = memo_[host_id];
  if (slot.has_value()) {
    ++hits_;
    return *slot;
  }
  slot = table_->classify_host((*hosts_)[host_id]);
  ++distinct_;
  return *slot;
}

std::vector<EndpointClass> attribute_user_stream(
    HostClassCache& cache, std::span<const trace::ProxyRecord> log,
    std::span<const std::uint32_t> rows, util::SimTime proximity_window_s) {
  std::vector<EndpointClass> out;
  out.reserve(rows.size());
  for (const std::uint32_t row : rows) {
    out.push_back(cache.classify(log[row].host_id));
  }
  // Temporal-proximity attribution pass: third-party transactions inherit
  // the app of the nearest direct signature match within the window
  // (paper §3.3: "map a set of connections in the same timeframe with a
  // given app").
  std::vector<std::size_t> anchors;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].app != kUnknownApp) anchors.push_back(i);
  }
  if (anchors.empty()) return out;
  const auto time_of = [&log, rows](std::size_t i) {
    return log[rows[i]].timestamp;
  };
  std::size_t a = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i].app != kUnknownApp) continue;
    if (out[i].cls == appdb::TransactionClass::kApplication) continue;
    while (a + 1 < anchors.size() &&
           std::llabs(time_of(anchors[a + 1]) - time_of(i)) <=
               std::llabs(time_of(anchors[a]) - time_of(i))) {
      ++a;
    }
    const util::SimTime gap = std::llabs(time_of(anchors[a]) - time_of(i));
    if (gap <= proximity_window_s) out[i].app = out[anchors[a]].app;
  }
  return out;
}

}  // namespace wearscope::core
