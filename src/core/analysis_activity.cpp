#include "core/analysis_activity.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace wearscope::core {

void ActivityFinisher::add_user(std::size_t distinct_days,
                                std::span<const double> slot_txns,
                                std::span<const double> slot_bytes) {
  if (distinct_days == 0) return;  // registered but silent in window
  days_per_week_.push_back(static_cast<double>(distinct_days) /
                           std::max(1, weeks_));
  // Every slot is one distinct (day, hour): the summed hours-per-day count
  // is the slot count.
  const double hour_sum = static_cast<double>(slot_txns.size());
  hours_per_day_.push_back(hour_sum / static_cast<double>(distinct_days));
  double txn_sum = 0.0;
  for (const double n : slot_txns) {
    hourly_txns_.push_back(n);
    txn_sum += n;
  }
  hourly_bytes_.insert(hourly_bytes_.end(), slot_bytes.begin(),
                       slot_bytes.end());
  txns_per_hour_.push_back(txn_sum / std::max(1.0, hour_sum));
}

ActivityResult ActivityFinisher::finish(std::vector<double> txn_sizes) && {
  ActivityResult res;
  res.active_days_per_week = util::Ecdf(std::move(days_per_week_));
  res.active_hours_per_day = util::Ecdf(hours_per_day_);
  res.mean_active_days = res.active_days_per_week.mean();
  res.mean_active_hours = res.active_hours_per_day.mean();
  if (!hours_per_day_.empty()) {
    res.frac_over_10h = 1.0 - res.active_hours_per_day.at(10.0);
    res.frac_under_5h = res.active_hours_per_day.at(5.0 - 1e-9);
  }

  res.txn_size_bytes = util::Ecdf(std::move(txn_sizes));
  res.hourly_txns_per_user = util::Ecdf(std::move(hourly_txns_));
  res.hourly_bytes_per_user = util::Ecdf(std::move(hourly_bytes_));
  res.mean_txn_bytes = res.txn_size_bytes.mean();
  res.median_txn_bytes = res.txn_size_bytes.quantile(0.5);
  res.frac_txn_under_10kb = res.txn_size_bytes.at(10'000.0);

  res.txns_vs_hours = util::binned_relation(hours_per_day_, txns_per_hour_, 10);
  res.correlation = util::pearson(hours_per_day_, txns_per_hour_);
  res.binned_trend_corr = util::pearson(res.txns_vs_hours.x_centers,
                                        res.txns_vs_hours.y_means);
  return res;
}

ActivityResult analyze_activity(const AnalysisContext& ctx) {
  const auto& log = ctx.store().proxy;
  ActivityFinisher finisher(ctx.detailed_weeks());
  std::vector<double> txn_sizes;

  // Per-user scratch, reused across users.  A user's wearable rows are
  // time-sorted, so the (day, hour) slot is nondecreasing along them: the
  // per-slot totals are run accumulation, and slots complete already in
  // the sorted order the finisher needs.  The detailed window is a
  // time-suffix of each user's rows, so rows before it are never touched.
  std::vector<double> slot_txns;
  std::vector<double> slot_bytes;

  for (const UserView* u : ctx.wearable_users()) {
    slot_txns.clear();
    slot_bytes.clear();
    std::int64_t prev_slot = -1;
    int prev_day = -1;
    std::size_t distinct_days = 0;
    for_each_row(log, ctx.detailed_suffix(log, u->wearable_rows),
                 [&](const trace::ProxyRecord& r) {
                   const int day = util::day_of(r.timestamp);
                   const std::int64_t slot =
                       static_cast<std::int64_t>(day) * 24 +
                       util::hour_of(r.timestamp);
                   if (slot != prev_slot) {
                     prev_slot = slot;
                     slot_txns.push_back(0.0);
                     slot_bytes.push_back(0.0);
                     if (day != prev_day) {
                       prev_day = day;
                       ++distinct_days;
                     }
                   }
                   const double bytes = static_cast<double>(r.bytes_total());
                   slot_txns.back() += 1.0;
                   slot_bytes.back() += bytes;
                   txn_sizes.push_back(bytes);
                 });
    finisher.add_user(distinct_days, slot_txns, slot_bytes);
  }
  return std::move(finisher).finish(std::move(txn_sizes));
}

namespace {

Series ecdf_series(const char* name, const util::Ecdf& e,
                   std::size_t points = 64) {
  Series s;
  s.name = name;
  if (e.size() == 0) return s;
  for (std::size_t i = 0; i <= points; ++i) {
    const double q = static_cast<double>(i) / static_cast<double>(points);
    s.x.push_back(e.quantile(q));
    s.y.push_back(q);
  }
  return s;
}

}  // namespace

FigureData figure3b(const ActivityResult& r) {
  FigureData fig;
  fig.id = "fig3b";
  fig.title = "Active days per week and active hours per day (CDFs)";
  fig.series.push_back(
      ecdf_series("active_days_per_week_cdf", r.active_days_per_week));
  fig.series.push_back(
      ecdf_series("active_hours_per_day_cdf", r.active_hours_per_day));
  fig.checks.push_back(make_check("mean active days per week", 1.0,
                                  r.mean_active_days, 0.6, 1.6));
  fig.checks.push_back(make_check("mean active hours per day", 3.0,
                                  r.mean_active_hours, 2.0, 4.5));
  fig.checks.push_back(make_check("users active > 10 h/day", 0.07,
                                  r.frac_over_10h, 0.02, 0.13));
  fig.checks.push_back(make_check("users active < 5 h/day", 0.80,
                                  r.frac_under_5h, 0.70, 0.92));
  return fig;
}

FigureData figure3c(const ActivityResult& r) {
  FigureData fig;
  fig.id = "fig3c";
  fig.title = "Transaction sizes and hourly per-user data/transactions";
  fig.series.push_back(ecdf_series("txn_size_bytes_cdf", r.txn_size_bytes));
  fig.series.push_back(
      ecdf_series("hourly_txns_per_user_cdf", r.hourly_txns_per_user));
  fig.series.push_back(
      ecdf_series("hourly_bytes_per_user_cdf", r.hourly_bytes_per_user));
  // The mean of the heavy-tailed size distribution is volatile at small
  // sample sizes; the median check below is the sharp one.
  fig.checks.push_back(make_check("mean transaction size (KB)", 3.0,
                                  r.mean_txn_bytes / 1000.0, 1.5, 9.0));
  fig.checks.push_back(make_check("median transaction size (KB)", 3.0,
                                  r.median_txn_bytes / 1000.0, 1.0, 6.0));
  fig.checks.push_back(make_check("transactions under 10 KB", 0.80,
                                  r.frac_txn_under_10kb, 0.70, 0.92));
  return fig;
}

FigureData figure3d(const ActivityResult& r) {
  FigureData fig;
  fig.id = "fig3d";
  fig.title = "Hourly transactions vs daily active hours";
  Series s;
  s.name = "txns_per_hour_vs_active_hours";
  s.x = r.txns_vs_hours.x_centers;
  s.y = r.txns_vs_hours.y_means;
  fig.series.push_back(std::move(s));
  fig.checks.push_back(make_check(
      "correlation active-hours vs txns/hour (positive)", 0.5, r.correlation,
      0.15, 1.0));
  fig.notes.push_back(
      "the paper reports a clear positive relation; no coefficient given");
  return fig;
}

}  // namespace wearscope::core
