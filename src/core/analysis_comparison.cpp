#include "core/analysis_comparison.h"

#include <algorithm>

namespace wearscope::core {

namespace {

struct UserTotals {
  double bytes = 0.0;
  double txns = 0.0;
  double wearable_bytes = 0.0;
};

UserTotals totals_of(const AnalysisContext& ctx, const UserView& u) {
  UserTotals t;
  const auto& log = ctx.store().proxy;
  for_each_row(log, ctx.detailed_suffix(log, u.wearable_rows),
               [&t](const trace::ProxyRecord& r) {
                 t.bytes += static_cast<double>(r.bytes_total());
                 t.wearable_bytes += static_cast<double>(r.bytes_total());
                 t.txns += 1.0;
               });
  for_each_row(log, ctx.detailed_suffix(log, u.phone_rows),
               [&t](const trace::ProxyRecord& r) {
                 t.bytes += static_cast<double>(r.bytes_total());
                 t.txns += 1.0;
               });
  return t;
}

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

ComparisonResult analyze_comparison(const AnalysisContext& ctx) {
  ComparisonResult res;
  const double days = ctx.options().observation_days -
                      ctx.options().detailed_start_day;

  std::vector<double> owner_daily;
  std::vector<double> other_daily;
  std::vector<double> shares;
  double owner_bytes = 0.0;
  double owner_txns = 0.0;
  double other_bytes = 0.0;
  double other_txns = 0.0;

  for (const UserView& u : ctx.users()) {
    const UserTotals t = totals_of(ctx, u);
    if (t.txns <= 0.0) continue;
    if (u.has_wearable) {
      owner_daily.push_back(t.bytes / days);
      owner_bytes += t.bytes;
      owner_txns += t.txns;
      if (t.wearable_bytes > 0.0 && t.bytes > 0.0)
        shares.push_back(t.wearable_bytes / t.bytes);
    } else {
      other_daily.push_back(t.bytes / days);
      other_bytes += t.bytes;
      other_txns += t.txns;
    }
  }

  const std::size_t n_owner = owner_daily.size();
  const std::size_t n_other = other_daily.size();
  if (n_owner > 0 && n_other > 0) {
    res.data_ratio = (owner_bytes / static_cast<double>(n_owner)) /
                     (other_bytes / static_cast<double>(n_other));
    res.txn_ratio = (owner_txns / static_cast<double>(n_owner)) /
                    (other_txns / static_cast<double>(n_other));
  }

  // Normalize by the global maximum user, as the paper does.
  double max_daily = 0.0;
  for (const double v : owner_daily) max_daily = std::max(max_daily, v);
  for (const double v : other_daily) max_daily = std::max(max_daily, v);
  if (max_daily > 0.0) {
    for (double& v : owner_daily) v /= max_daily;
    for (double& v : other_daily) v /= max_daily;
  }
  res.owner_daily_bytes_norm = util::Ecdf(std::move(owner_daily));
  res.other_daily_bytes_norm = util::Ecdf(std::move(other_daily));

  res.wearable_share = util::Ecdf(shares);
  if (!shares.empty()) {
    res.median_wearable_share = res.wearable_share.quantile(0.5);
    res.frac_share_over_3pct = 1.0 - res.wearable_share.at(0.03);
  }
  return res;
}

FigureData figure4a(const ComparisonResult& r) {
  FigureData fig;
  fig.id = "fig4a";
  fig.title = "Per-user daily traffic: wearable owners vs remaining users";
  fig.series.push_back(
      ecdf_series("owner_daily_bytes_norm_cdf", r.owner_daily_bytes_norm));
  fig.series.push_back(
      ecdf_series("other_daily_bytes_norm_cdf", r.other_daily_bytes_norm));
  fig.checks.push_back(make_check("owners' data inflation", 1.26,
                                  r.data_ratio, 1.10, 1.45));
  fig.checks.push_back(make_check("owners' transaction inflation", 1.48,
                                  r.txn_ratio, 1.25, 1.75));
  return fig;
}

FigureData figure4b(const ComparisonResult& r) {
  FigureData fig;
  fig.id = "fig4b";
  fig.title = "Wearable share of an owner's total traffic";
  fig.series.push_back(ecdf_series("wearable_share_cdf", r.wearable_share));
  fig.checks.push_back(make_check(
      "median wearable/total traffic ratio (~1e-3)", 0.001,
      r.median_wearable_share, 0.0001, 0.01));
  // Tail statistic: a handful of heavy wearable users decide it, so the
  // band is generous around the paper's 10%.
  fig.checks.push_back(make_check("users with >= 3% wearable share", 0.10,
                                  r.frac_share_over_3pct, 0.03, 0.20));
  fig.notes.push_back(
      "the paper says wearable traffic is 'three magnitudes smaller' than "
      "the owner's overall traffic; we check the median per-user ratio");
  return fig;
}

}  // namespace wearscope::core
