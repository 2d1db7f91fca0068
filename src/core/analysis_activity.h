// Fig. 3(b,c,d) — microscopic user activity over the detailed window:
//   (b) CDFs of active days per week and active hours per day;
//   (c) CDFs of transaction sizes and of hourly per-user data/transactions;
//   (d) the relation between hourly transactions and daily active hours.
#pragma once

#include <span>
#include <vector>

#include "core/context.h"
#include "core/report.h"
#include "util/stats.h"

namespace wearscope::core {

/// Structured results of the microscopic activity analysis (§4.3).
struct ActivityResult {
  // ---- Fig. 3b ------------------------------------------------------------
  util::Ecdf active_days_per_week;  ///< Per transacting user.
  util::Ecdf active_hours_per_day;  ///< Per transacting user (mean/day).
  double mean_active_days = 0.0;    ///< Paper: ~1 day/week.
  double mean_active_hours = 0.0;   ///< Paper: ~3 h/day.
  double frac_over_10h = 0.0;       ///< Paper: 7%.
  double frac_under_5h = 0.0;       ///< Paper: 80%.

  // ---- Fig. 3c ------------------------------------------------------------
  util::Ecdf txn_size_bytes;        ///< Per transaction.
  util::Ecdf hourly_txns_per_user;  ///< Per (user, active hour).
  util::Ecdf hourly_bytes_per_user;
  double mean_txn_bytes = 0.0;      ///< Paper: ~3 KB.
  double median_txn_bytes = 0.0;
  double frac_txn_under_10kb = 0.0; ///< Paper: 80%.

  // ---- Fig. 3d ------------------------------------------------------------
  util::BinnedRelation txns_vs_hours;  ///< x: active h/day, y: txns/hour.
  double correlation = 0.0;            ///< Pearson, user level.
  /// Correlation of the binned curve (what Fig. 3d displays).
  double binned_trend_corr = 0.0;
};

/// The one Fig. 3b/c/d arithmetic, shared by analyze_activity() and
/// ActivityTally::finalize() (core/streaming_activity.h).  Feed every user
/// in first-appearance order — binned_relation breaks ties in x by input
/// position, so the Fig. 3d scalars depend on that order — then finish
/// with the size of every detailed-window transaction.
class ActivityFinisher {
 public:
  /// `weeks`: whole weeks in the detailed window.
  explicit ActivityFinisher(int weeks) : weeks_(weeks) {}

  /// One user: `distinct_days` active days and the transactions / bytes
  /// of each active (day, hour) slot, in slot order.  A user with no
  /// active day is skipped.
  void add_user(std::size_t distinct_days, std::span<const double> slot_txns,
                std::span<const double> slot_bytes);

  /// The ECDFs, means/fractions and correlation scalars.
  [[nodiscard]] ActivityResult finish(std::vector<double> txn_sizes) &&;

 private:
  int weeks_;
  std::vector<double> days_per_week_;
  std::vector<double> hours_per_day_;  ///< Also Fig. 3d's x per user.
  std::vector<double> txns_per_hour_;  ///< Fig. 3d's y per user.
  std::vector<double> hourly_txns_;
  std::vector<double> hourly_bytes_;
};

/// Runs the analysis over the detailed window (wearable traffic only;
/// monotone-slot run accumulation over each user's rows, no per-user maps).
ActivityResult analyze_activity(const AnalysisContext& ctx);

/// Renders Fig. 3(b) with its checks.
FigureData figure3b(const ActivityResult& r);
/// Renders Fig. 3(c) with its checks.
FigureData figure3c(const ActivityResult& r);
/// Renders Fig. 3(d) with its checks.
FigureData figure3d(const ActivityResult& r);

}  // namespace wearscope::core
