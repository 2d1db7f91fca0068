// Fig. 2 — user adoption of SIM-enabled wearables over the five-month
// summary window: daily registered-user counts (normalized, Fig. 2a) and
// first-week vs last-week presence (Fig. 2b), plus the "only 34% transmit
// any data" headline.
#pragma once

#include <vector>

#include "core/context.h"
#include "core/report.h"

namespace wearscope::core {

/// Structured results of the adoption analysis.
struct AdoptionResult {
  /// Per-day distinct wearable users registered with the MME, normalized
  /// by the final day's count (Fig. 2a's y-axis).
  std::vector<double> daily_registered_norm;
  /// Total relative growth across the window ((last wk - first wk)/first).
  double total_growth = 0.0;
  /// Monthly growth rate (total over window months).
  double monthly_growth = 0.0;
  /// Fraction of ever-registered users with >= 1 wearable transaction.
  double ever_transacting_fraction = 0.0;
  /// Fig. 2b shares relative to the first-week/last-week user union.
  double still_active_share = 0.0;
  double gone_share = 0.0;
  double new_share = 0.0;
  /// Fraction of first-week users missing in the last week ("7%").
  double churned_of_initial = 0.0;
  /// Raw counts backing the shares.
  std::size_t ever_registered = 0;
  std::size_t ever_transacted = 0;
};

/// Runs the analysis over the full observation window: fills an
/// AdoptionTally (core/streaming.h) from each wearable user's MME rows
/// with per-day distinct-user counts and returns its finalize().
AdoptionResult analyze_adoption(const AnalysisContext& ctx);

/// Renders Fig. 2(a) with its checks.
FigureData figure2a(const AdoptionResult& r);
/// Renders Fig. 2(b) with its checks.
FigureData figure2b(const AdoptionResult& r);

}  // namespace wearscope::core
