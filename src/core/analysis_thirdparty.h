// Fig. 8 — transaction classes of wearable traffic (§5.2): share of unique
// users, frequency of usage and data exchanged with Application (first
// party), Utilities (CDNs), Advertising and Analytics endpoints.
#pragma once

#include <array>

#include "appdb/third_party.h"
#include "core/context.h"
#include "core/report.h"

namespace wearscope::core {

/// Shares of one transaction class (as % of the daily total).
struct ClassStats {
  appdb::TransactionClass cls = appdb::TransactionClass::kApplication;
  double user_share_pct = 0.0;
  double txn_share_pct = 0.0;
  double data_share_pct = 0.0;
};

/// Structured results of the third-party analysis.
struct ThirdPartyResult {
  std::array<ClassStats, appdb::kTransactionClassCount> classes{};
  /// First-party over third-party (Utilities+Ads+Analytics) data ratio;
  /// the paper observes "the same order of magnitude".
  double app_over_thirdparty_data = 0.0;
};

/// Runs the analysis over the detailed window (wearable traffic only;
/// per-user class flags instead of per-class user sets).
ThirdPartyResult analyze_thirdparty(const AnalysisContext& ctx);

/// Renders Fig. 8 with its checks.
FigureData figure8(const ThirdPartyResult& r);

}  // namespace wearscope::core
