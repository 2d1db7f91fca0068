// Fig. 3(a) — macroscopic hourly usage of SIM-enabled wearables over the
// detailed window: average share of active users, data and transactions per
// hour of day, split weekday vs weekend; plus the "35% of weekly actives
// are active on a given day" statistic and the weekend-share comparison
// against the remaining customers (§4.2).
#pragma once

#include <array>

#include "core/context.h"
#include "core/report.h"

namespace wearscope::core {

/// Hour-of-day profile of one metric (normalized to the weekly total).
using HourProfile = std::array<double, 24>;

/// Structured results of the diurnal analysis.
struct DiurnalResult {
  HourProfile users_weekday{};
  HourProfile users_weekend{};
  HourProfile data_weekday{};
  HourProfile data_weekend{};
  HourProfile txns_weekday{};
  HourProfile txns_weekend{};
  /// Mean (distinct active users per day) / (distinct active per week).
  double daily_active_fraction = 0.0;
  /// Weekday-morning-commute (6-9 am) user share divided by the weekend's.
  double commute_bump_ratio = 0.0;
  /// Wearable share of total traffic on weekends divided by weekdays
  /// (> 1: wearables relatively busier on weekends, §4.2).
  double weekend_relative_usage = 0.0;
  /// Max/min ratio of active wearable user-days across the seven days of
  /// the week (§4.2: activity is "evenly spread across days"); user-days
  /// rather than raw transactions so one hyper-active user cannot skew a
  /// weekday.
  double day_of_week_spread = 0.0;
  /// Per-day-of-week transaction totals (Mon..Sun), normalized to shares.
  std::array<double, 7> dow_txn_share{};
};

/// Runs the analysis over the detailed window (per-user monotone
/// slot/day/week dedup instead of global hash sets).
DiurnalResult analyze_diurnal(const AnalysisContext& ctx);

/// Renders Fig. 3(a) with its checks.
FigureData figure3a(const DiurnalResult& r);

}  // namespace wearscope::core
