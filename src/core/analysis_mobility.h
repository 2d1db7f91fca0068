// Fig. 4(c,d) — mobility analysis over the detailed window (§4.4):
//   (c) per-user max displacement (furthest two antennas of a day) CDFs for
//       wearable users vs all users; dwell-normalized location entropy;
//       the 60%-single-location statistic;
//   (d) max displacement vs hourly transaction activity.
#pragma once

#include <vector>

#include "core/context.h"
#include "core/report.h"
#include "util/stats.h"

namespace wearscope::core {

/// How location entropy weighs a user's visited sectors.
enum class EntropyNorm {
  kDwellWeighted,  ///< Paper's definition: weight by time spent per sector.
  kVisitCount,     ///< Naive: weight by number of MME events per sector.
};

/// Seconds one user spent per sector, sectors ascending.
struct SectorDwell {
  std::vector<trace::SectorId> sectors;
  std::vector<double> seconds;  ///< Parallel to `sectors`.
};

/// Same-day consecutive dwell of one user within the detailed window: each
/// MME event's sector accrues the time until the user's next event of the
/// same day.  Fills `out` (reusing its capacity) with one entry per sector
/// that accrued, possibly 0 s; each sector's sum runs in time order.  The
/// one dwell walk behind the dwell-weighted entropy and geography's home
/// anchor.
void user_sector_dwell(const AnalysisContext& ctx, const UserView& user,
                       SectorDwell& out);

/// Shannon entropy (bits) of one user's visited locations within the
/// detailed window, under the chosen normalization (weights in sector
/// order).
double user_location_entropy(const AnalysisContext& ctx, const UserView& user,
                             EntropyNorm norm = EntropyNorm::kDwellWeighted);

/// Fig. 4(d) inputs of one user: wearable transactions in the detailed
/// window, the distinct (day, hour) slots they fall in, and whether all of
/// them were made from one sector.  A transaction is placed at the sector
/// of the user's last MME event at or before it, else of the first event;
/// a user without MME events counts as single-location.
struct TxnActivity {
  std::size_t txns = 0;
  std::size_t active_hours = 0;
  bool single_location = true;
};

/// One forward walk over the user's time-sorted transactions and MME
/// events.
TxnActivity user_txn_activity(const AnalysisContext& ctx,
                              const UserView& user);

/// Structured results of the mobility analysis.
struct MobilityResult {
  util::Ecdf wearable_displacement_km;  ///< Per wearable user (daily mean).
  util::Ecdf all_displacement_km;       ///< Per user, everyone.
  double wearable_mean_km = 0.0;        ///< Paper: ~20-31 km.
  double all_mean_km = 0.0;             ///< Paper: ~16 km.
  double displacement_ratio = 0.0;      ///< Paper: ~2x.
  double frac_under_30km = 0.0;         ///< Paper: 90% under 30 km.
  double wearable_entropy_bits = 0.0;   ///< Dwell-weighted Shannon entropy.
  double all_entropy_bits = 0.0;
  double entropy_ratio = 0.0;           ///< Paper: +70% => ~1.7.
  double single_location_fraction = 0.0;  ///< Paper: 60%.
  /// Non-stationary comparison (max displacement > 0 only).
  double nonstationary_ratio = 0.0;     ///< Still > 1 per the paper.

  util::BinnedRelation displacement_vs_txns;  ///< Fig. 4d.
  double mobility_activity_corr = 0.0;        ///< Spearman (user level).
  /// Correlation of the binned curve itself (what Fig. 4d displays);
  /// far more stable than the user-level rank statistic.
  double binned_trend_corr = 0.0;
};

/// Runs the analysis over the detailed window.
MobilityResult analyze_mobility(const AnalysisContext& ctx);

/// Renders Fig. 4(c) with its checks.
FigureData figure4c(const MobilityResult& r);
/// Renders Fig. 4(d) with its checks.
FigureData figure4d(const MobilityResult& r);

}  // namespace wearscope::core
