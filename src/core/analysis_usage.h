// Fig. 7 — transactions and data during a single app usage (§5.2), using
// the paper's 60-second-gap sessionization.
#pragma once

#include <string>
#include <vector>

#include "core/context.h"
#include "core/report.h"

namespace wearscope::core {

/// Per-usage aggregates of one app.
struct PerUsageStats {
  appdb::AppId app = kUnknownApp;
  std::string name;
  double mean_txns_per_usage = 0.0;
  double mean_kb_per_usage = 0.0;
  double mean_duration_s = 0.0;  ///< §5.2: media usages run longer.
  std::size_t usages = 0;
};

/// Structured results of the per-usage analysis.
struct UsageResult {
  /// Apps sorted by descending data per usage (Fig. 7 ordering).
  std::vector<PerUsageStats> apps;
};

/// Runs the analysis over the detailed window (dense app-id-indexed
/// accumulation instead of a hash map).
UsageResult analyze_usage(const AnalysisContext& ctx);

/// Renders Fig. 7 with its checks.
FigureData figure7(const UsageResult& r);

}  // namespace wearscope::core
