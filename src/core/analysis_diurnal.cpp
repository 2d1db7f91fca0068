#include "core/analysis_diurnal.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace wearscope::core {

namespace {

/// Accumulates one metric into (hour, daykind) cells and normalizes by the
/// average weekly total, matching the figure's normalization.
struct HourAccumulator {
  HourProfile weekday{};
  HourProfile weekend{};
  double total = 0.0;
  int weekday_days = 0;
  int weekend_days = 0;

  void add(util::SimTime t, double amount) {
    const int h = util::hour_of(t);
    auto& prof = util::is_weekend(t) ? weekend : weekday;
    prof[static_cast<std::size_t>(h)] += amount;
    total += amount;
  }

  /// Normalizes to per-day averages over the weekly total (`weeks` >= 1:
  /// require_analysis_window() guarantees a whole detailed week).
  void finalize(int weeks) {
    if (total <= 0.0) return;
    const double weekly_total = total / weeks;
    for (std::size_t h = 0; h < 24; ++h) {
      // Average day of each kind, as share of the average weekly total.
      weekday[h] = weekday[h] / std::max(1, weekday_days) / weekly_total;
      weekend[h] = weekend[h] / std::max(1, weekend_days) / weekly_total;
    }
  }
};

Series to_series(const char* name, const HourProfile& p) {
  Series s;
  s.name = name;
  for (int h = 0; h < 24; ++h) {
    s.x.push_back(h);
    s.y.push_back(p[static_cast<std::size_t>(h)]);
  }
  return s;
}

}  // namespace

DiurnalResult analyze_diurnal(const AnalysisContext& ctx) {
  DiurnalResult res;
  const int weeks = ctx.detailed_weeks();
  const auto& log = ctx.store().proxy;

  HourAccumulator users_acc;
  HourAccumulator data_acc;
  HourAccumulator txns_acc;
  for (int d = ctx.options().detailed_start_day;
       d < ctx.options().observation_days; ++d) {
    (util::is_weekend_day(d) ? users_acc.weekend_days
                             : users_acc.weekday_days)++;
  }
  data_acc.weekday_days = txns_acc.weekday_days = users_acc.weekday_days;
  data_acc.weekend_days = txns_acc.weekend_days = users_acc.weekend_days;

  // Distinct (user, day-hour) / (user, day) / (user, week) keys need no
  // hash sets: a user's wearable rows are time-sorted, so each key is
  // nondecreasing along them and "first time seen" is just "different
  // from the previous one", per user.
  std::size_t user_days = 0;   // distinct (user, day)
  std::size_t user_weeks = 0;  // distinct (user, week)
  std::array<std::size_t, 2> weekly_bytes{};  // [weekday, weekend] wearable
  std::array<std::size_t, 2> weekly_bytes_all{};
  std::array<double, 7> dow_txns{};       // Mon..Sun wearable transactions
  std::array<double, 7> dow_user_days{};  // Mon..Sun distinct active users

  for (const UserView* u : ctx.wearable_users()) {
    std::int64_t prev_slot = -1;
    int prev_day = -1;
    int prev_week = -1;
    for_each_row(log, ctx.detailed_suffix(log, u->wearable_rows),
                 [&](const trace::ProxyRecord& r) {
      const util::SimTime t = r.timestamp;
      const int day = util::day_of(t);
      const std::int64_t slot =
          static_cast<std::int64_t>(day) * 24 + util::hour_of(t);
      if (slot != prev_slot) {
        prev_slot = slot;
        users_acc.add(t, 1.0);
      }
      if (day != prev_day) {
        prev_day = day;
        ++user_days;
        dow_user_days[static_cast<std::size_t>(
            util::weekday_of_day(day))] += 1.0;
      }
      const int week = util::week_of(t);
      if (week != prev_week) {
        prev_week = week;
        ++user_weeks;
      }
      const std::uint64_t bytes = r.bytes_total();
      data_acc.add(t, static_cast<double>(bytes));
      txns_acc.add(t, 1.0);
      weekly_bytes[util::is_weekend(t) ? 1 : 0] += bytes;
      dow_txns[static_cast<std::size_t>(util::weekday_of(t))] += 1.0;
    });
  }
  // Total traffic (wearable + everything else) for the relative-usage
  // comparison of §4.2: the log is time-sorted, so the detailed window is
  // its suffix.
  const auto window = std::partition_point(
      log.begin(), log.end(), [&ctx](const trace::ProxyRecord& r) {
        return !ctx.in_detailed_window(r.timestamp);
      });
  for (auto it = window; it != log.end(); ++it)
    weekly_bytes_all[util::is_weekend(it->timestamp) ? 1 : 0] +=
        it->bytes_total();

  users_acc.finalize(weeks);
  data_acc.finalize(weeks);
  txns_acc.finalize(weeks);
  res.users_weekday = users_acc.weekday;
  res.users_weekend = users_acc.weekend;
  res.data_weekday = data_acc.weekday;
  res.data_weekend = data_acc.weekend;
  res.txns_weekday = txns_acc.weekday;
  res.txns_weekend = txns_acc.weekend;

  if (user_weeks > 0) {
    // days in window = weeks * 7; mean distinct users per day over mean
    // distinct users per week.
    const double per_day = static_cast<double>(user_days) / (weeks * 7.0);
    const double per_week = static_cast<double>(user_weeks) / weeks;
    if (per_week > 0.0) res.daily_active_fraction = per_day / per_week;
  }

  double wd_morning = 0.0;
  double we_morning = 0.0;
  for (std::size_t h = 6; h < 9; ++h) {
    wd_morning += res.users_weekday[h];
    we_morning += res.users_weekend[h];
  }
  if (we_morning > 0.0) res.commute_bump_ratio = wd_morning / we_morning;

  double dow_total = 0.0;
  for (const double v : dow_txns) dow_total += v;
  if (dow_total > 0.0) {
    for (std::size_t d = 0; d < 7; ++d)
      res.dow_txn_share[d] = dow_txns[d] / dow_total;
  }
  double ud_min = 1e300;
  double ud_max = 0.0;
  for (const double v : dow_user_days) {
    ud_min = std::min(ud_min, v);
    ud_max = std::max(ud_max, v);
  }
  if (ud_min > 0.0) res.day_of_week_spread = ud_max / ud_min;

  if (weekly_bytes_all[0] > 0 && weekly_bytes_all[1] > 0 &&
      weekly_bytes[0] > 0) {
    const double wd_share = static_cast<double>(weekly_bytes[0]) /
                            static_cast<double>(weekly_bytes_all[0]);
    const double we_share = static_cast<double>(weekly_bytes[1]) /
                            static_cast<double>(weekly_bytes_all[1]);
    res.weekend_relative_usage = we_share / wd_share;
  }
  return res;
}

FigureData figure3a(const DiurnalResult& r) {
  FigureData fig;
  fig.id = "fig3a";
  fig.title = "Hourly wearable usage (share of weekly total)";
  fig.series.push_back(to_series("active_users_weekday", r.users_weekday));
  fig.series.push_back(to_series("active_users_weekend", r.users_weekend));
  fig.series.push_back(to_series("data_weekday", r.data_weekday));
  fig.series.push_back(to_series("data_weekend", r.data_weekend));
  fig.series.push_back(to_series("transactions_weekday", r.txns_weekday));
  fig.series.push_back(to_series("transactions_weekend", r.txns_weekend));
  fig.checks.push_back(make_check(
      "share of weekly actives active on a given day", 0.35,
      r.daily_active_fraction, 0.25, 0.50));
  fig.checks.push_back(make_check(
      "weekday/weekend commute-morning user ratio (>1)", 1.5,
      r.commute_bump_ratio, 1.1, 5.0));
  fig.checks.push_back(make_check(
      "relative wearable usage weekend vs weekday (>1)", 1.1,
      r.weekend_relative_usage, 1.0, 2.5));
  // §4.2: activity is "evenly spread across days of the week" — the
  // busiest weekday attracts at most ~1.6x the quietest one's users.
  fig.checks.push_back(make_check(
      "day-of-week active-user spread (max/min, even)", 1.2,
      r.day_of_week_spread, 1.0, 1.8));
  Series dow;
  dow.name = "txn_share_by_day_of_week";
  for (int d = 0; d < 7; ++d) {
    dow.labels.push_back(
        util::weekday_name(static_cast<util::Weekday>(d)));
    dow.y.push_back(r.dow_txn_share[static_cast<std::size_t>(d)]);
  }
  fig.series.push_back(std::move(dow));
  return fig;
}

}  // namespace wearscope::core
