// App identification from SNI/URL (paper §3.3) and endpoint classification
// into Application / Utilities / Advertising / Analytics (paper §5.2).
//
// The signature table maps DNS suffixes to apps; it is built from the
// lab-derived knowledge base (appdb) *minus* the apps whose endpoints the
// authors never mapped — so a realistic share of traffic stays Unknown.
// Third-party hosts (CDNs, ad networks, analytics) are never app
// signatures; they are attributed to an app by temporal proximity within a
// user's stream ("map a set of connections in the same timeframe with a
// given app"), mirroring the paper's method.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <string>
#include <string_view>
#include <vector>

#include "appdb/app_catalog.h"
#include "appdb/categories.h"
#include "appdb/third_party.h"
#include "trace/records.h"
#include "trace/string_pool.h"
#include "util/strings.h"

namespace wearscope::core {

/// Sentinel app id for traffic that could not be attributed to any app.
inline constexpr appdb::AppId kUnknownApp = 0xffffffff;

/// Endpoint classification of one transaction (Fig. 8 plus Unknown-app
/// first-party fallout).
struct EndpointClass {
  appdb::TransactionClass cls = appdb::TransactionClass::kApplication;
  /// App whose signature matched; kUnknownApp when none (always
  /// kUnknownApp for third-party classes — those belong to no single app).
  appdb::AppId app = kUnknownApp;

  friend bool operator==(const EndpointClass&,
                         const EndpointClass&) = default;
};

/// Suffix-rule signature table.
class AppSignatureTable {
 public:
  /// Builds rules from the knowledge base: one suffix rule per first-party
  /// domain of every app flagged `in_signature_table`.
  /// `coverage` in (0, 1] keeps only that fraction of the rules (used by
  /// the signature-coverage ablation); 1.0 keeps all.
  explicit AppSignatureTable(const appdb::AppCatalog& catalog,
                             double coverage = 1.0);

  /// Classifies a host: app signature -> Application with the app id;
  /// known third-party pools (or ad/analytics-looking labels) -> their
  /// class; anything else -> Application with kUnknownApp.
  [[nodiscard]] EndpointClass classify_host(std::string_view host) const;

  /// Direct signature lookup; nullopt when no app rule matches.
  [[nodiscard]] std::optional<appdb::AppId> match_app(
      std::string_view host) const;

  /// App display name ("Unknown" for kUnknownApp).
  [[nodiscard]] std::string_view app_name(appdb::AppId id) const;

  /// Google Play category of an app (nullopt for kUnknownApp).
  [[nodiscard]] std::optional<appdb::Category> app_category(
      appdb::AppId id) const;

  /// Number of suffix rules installed.
  [[nodiscard]] std::size_t rule_count() const noexcept {
    return rules_.size();
  }

  /// Number of distinct apps with at least one rule (precomputed).
  [[nodiscard]] std::size_t mapped_app_count() const noexcept {
    return mapped_app_count_;
  }

 private:
  /// Heterogeneous-lookup index: probed with string_view suffixes of the
  /// host, so the per-suffix std::string of the old hot path is gone.
  using SuffixIndex =
      std::unordered_map<std::string, appdb::AppId, util::StringHash,
                         std::equal_to<>>;

  /// Direct + registrable-domain match over an already lower-cased host;
  /// kUnknownApp when nothing (unambiguous) matches.
  [[nodiscard]] appdb::AppId match_app_lower(
      std::string_view host_lower) const;

  struct Rule {
    std::string suffix;
    appdb::AppId app;
  };
  std::vector<Rule> rules_;
  SuffixIndex rule_index_;
  /// Registrable-domain fallback: kUnknownApp marks an ambiguous domain
  /// (two apps share it, e.g. googleapis.com) that must NOT match.
  SuffixIndex registrable_index_;
  std::vector<std::string> app_names_;
  std::vector<appdb::Category> app_categories_;
  std::size_t mapped_app_count_ = 0;
};

/// Memoizing wrapper over AppSignatureTable::classify_host, indexed by
/// host id: hosts repeat heavily across transactions, so per-shard
/// workers keep one of these and classify each distinct host once.  Pure
/// cache: results are identical to the uncached table.  Not thread-safe —
/// one instance per shard/worker.
class HostClassCache {
 public:
  /// `table` and `hosts` (the pool the host ids index) must outlive the
  /// cache; `hosts` may grow, never change.
  HostClassCache(const AppSignatureTable& table, const trace::StringPool& hosts)
      : table_(&table), hosts_(&hosts) {}

  /// Memoized classify_host of host `host_id`.
  [[nodiscard]] EndpointClass classify(std::uint32_t host_id);

  /// Distinct hosts classified so far.
  [[nodiscard]] std::size_t distinct_hosts() const noexcept {
    return distinct_;
  }
  /// Lookups served from the memo.
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }

 private:
  const AppSignatureTable* table_;
  const trace::StringPool* hosts_;
  std::vector<std::optional<EndpointClass>> memo_;
  std::size_t distinct_ = 0;
  std::uint64_t hits_ = 0;
};

/// Attributes every proxy record of one user to an app id, combining direct
/// signature matches with temporal proximity for third-party endpoints.
///
/// `rows` must be the rows of `log` holding a single user's time-sorted
/// proxy records, their host ids indexing the pool `cache` was built over.
/// Host classification goes through `cache`, which persists across calls
/// (one cache per shard/worker).  Returns one EndpointClass per row,
/// index-aligned.
std::vector<EndpointClass> attribute_user_stream(
    HostClassCache& cache, std::span<const trace::ProxyRecord> log,
    std::span<const std::uint32_t> rows,
    util::SimTime proximity_window_s = 120);

}  // namespace wearscope::core
