// AnalysisContext: the shared, pre-indexed view of one capture.
//
// Built once from a TraceStore, it performs the expensive joins every
// analysis needs: device classification (TAC -> wearable?), per-user record
// grouping, app attribution of wearable traffic, usage sessionization, and
// MME-based positioning.  Analyses then read these indexes; none of them
// ever sees generator ground truth.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "appdb/app_catalog.h"
#include "core/app_id.h"
#include "core/device_id.h"
#include "core/sessionize.h"
#include "trace/store.h"
#include "util/sim_time.h"

namespace wearscope::core {

/// Knobs of the analysis itself (the study parameters, not the generator's).
struct AnalysisOptions {
  /// Length of the observation window in days (the analysts know their
  /// own collection schedule).
  int observation_days = util::kObservationDays;
  /// First day of the detailed-log window, at least 7 days before the
  /// end of the observation window (require_analysis_window()).
  int detailed_start_day = util::kObservationDays - 21;
  /// Usage sessionization gap (paper: 60 s).
  util::SimTime usage_gap_s = kDefaultUsageGapS;
  /// Temporal-proximity window for third-party app attribution.
  util::SimTime attribution_window_s = 120;
  /// Fraction of signature rules retained (coverage ablation); 1 = all.
  double signature_coverage = 1.0;
  /// Long-tail size of the analyst's app knowledge base. Must describe the
  /// world at least as richly as the traffic (defaults match appdb).
  std::uint32_t long_tail_apps = 150;
  /// Worker threads for the batch pipeline (context indexing and the
  /// analysis passes). 1 = the sequential reference path; any N produces
  /// bitwise-identical output (see docs/DESIGN.md, determinism contract).
  int threads = 1;
};

/// The one check of an analysis window, shared by the batch context, the
/// live engine and the streaming counters: a positive observation window
/// and a detailed window [detailed_start_day, observation_days) holding at
/// least one whole week (the per-week and per-day normalizations divide by
/// it).  Throws util::ConfigError otherwise.
void require_analysis_window(int observation_days, int detailed_start_day);

/// Whole weeks in the detailed window [detailed_start_day, observation_days).
[[nodiscard]] constexpr int detailed_window_weeks(
    int observation_days, int detailed_start_day) noexcept {
  return (observation_days - detailed_start_day) / 7;
}

/// Everything the analyses know about one subscriber.  A record is named
/// by its row in the store's log: the row spans point into arrays the
/// AnalysisContext owns (one array per kind, each user's rows contiguous
/// and time-sorted).
struct UserView {
  trace::UserId user_id = 0;
  bool has_wearable = false;  ///< Observed with a wearable TAC (MME/proxy).
  /// Proxy rows of the time-sorted wearable-TAC transactions.
  std::span<const std::uint32_t> wearable_rows;
  /// Per-record attribution, index-aligned with wearable_rows.
  std::vector<EndpointClass> wearable_classes;
  /// Reconstructed wearable app usages (sessionized).
  std::vector<Usage> usages;
  /// Proxy rows of the time-sorted non-wearable (phone etc.) transactions.
  std::span<const std::uint32_t> phone_rows;
  /// MME rows of the time-sorted events (all of the user's devices).
  std::span<const std::uint32_t> mme_rows;
};

/// Calls `fn(log[row])` for each of `rows` (one user's UserView span) in
/// order.  A user's records lie scattered over the log, so each visit is
/// likely a cache miss; the walk prefetches a few records ahead, both ends
/// of each (a row often straddles two cache lines), so the misses overlap
/// instead of queueing.
template <typename Log, typename Fn>
void for_each_row(const Log& log, std::span<const std::uint32_t> rows,
                  Fn&& fn) {
  using Record = typename Log::value_type;
  constexpr std::size_t kAhead = 16;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (k + kAhead < rows.size()) {
      const char* ahead = reinterpret_cast<const char*>(&log[rows[k + kAhead]]);
      __builtin_prefetch(ahead);
      __builtin_prefetch(ahead + sizeof(Record) - 1);
    }
    fn(log[rows[k]]);
  }
}

/// The shared analysis state.
class AnalysisContext {
 public:
  /// Indexes `store` (which must outlive the context).
  AnalysisContext(const trace::TraceStore& store, AnalysisOptions options);
  /// The user views point into the context's own arrays: a copy would
  /// share them, a move keeps them valid.
  AnalysisContext(const AnalysisContext&) = delete;
  AnalysisContext& operator=(const AnalysisContext&) = delete;
  AnalysisContext(AnalysisContext&&) = default;
  AnalysisContext& operator=(AnalysisContext&&) = default;

  [[nodiscard]] const trace::TraceStore& store() const noexcept {
    return *store_;
  }
  [[nodiscard]] const AnalysisOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const DeviceClassifier& devices() const noexcept {
    return *devices_;
  }
  [[nodiscard]] const AppSignatureTable& signatures() const noexcept {
    return *signatures_;
  }

  /// All users observed anywhere in the logs, in discovery order: the
  /// proxy log's users by first row, then the users seen only in the MME
  /// log by first row there.
  [[nodiscard]] const std::vector<UserView>& users() const noexcept {
    return users_;
  }
  /// Users observed with a SIM-wearable (the study population).
  [[nodiscard]] std::span<const UserView* const> wearable_users()
      const noexcept {
    return wearable_users_;
  }
  /// The remaining customers (no wearable TAC ever seen).
  [[nodiscard]] std::span<const UserView* const> other_users()
      const noexcept {
    return other_users_;
  }

  /// User lookup; nullptr when the id never appears in the logs.
  [[nodiscard]] const UserView* find_user(trace::UserId id) const;

  /// First timestamp of the detailed-log window.
  [[nodiscard]] util::SimTime detailed_start() const noexcept {
    return util::day_start(options_.detailed_start_day);
  }

  /// True when `t` falls inside the detailed window.
  [[nodiscard]] bool in_detailed_window(util::SimTime t) const noexcept {
    return t >= detailed_start();
  }

  /// The part of a user's time-sorted rows of `log` (UserView::mme_rows
  /// over the MME log, wearable_rows or phone_rows over the proxy log)
  /// inside the detailed window: a suffix, found by binary search.
  template <typename Log>
  [[nodiscard]] std::span<const std::uint32_t> detailed_suffix(
      const Log& log,
      std::span<const std::uint32_t> rows) const {
    return {std::partition_point(rows.begin(), rows.end(),
                                 [this, &log](std::uint32_t row) {
                                   return !in_detailed_window(
                                       log[row].timestamp);
                                 }),
            rows.end()};
  }

  /// Number of whole weeks in the detailed window.
  [[nodiscard]] int detailed_weeks() const noexcept {
    return detailed_window_weeks(options_.observation_days,
                                 options_.detailed_start_day);
  }

 private:
  const trace::TraceStore* store_;
  AnalysisOptions options_;
  std::unique_ptr<appdb::AppCatalog> knowledge_base_;
  std::unique_ptr<DeviceClassifier> devices_;
  std::unique_ptr<AppSignatureTable> signatures_;
  std::vector<UserView> users_;
  /// The row arrays the users' spans cover, users in users_ order.
  std::vector<std::uint32_t> wearable_rows_;
  std::vector<std::uint32_t> phone_rows_;
  std::vector<std::uint32_t> mme_rows_;
  std::vector<const UserView*> wearable_users_;
  std::vector<const UserView*> other_users_;
  std::unordered_map<trace::UserId, std::size_t> user_index_;
};

}  // namespace wearscope::core
