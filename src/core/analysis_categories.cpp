#include "core/analysis_categories.h"

#include <algorithm>

namespace wearscope::core {

CategoryResult analyze_categories(const AnalysisContext& ctx) {
  CategoryResult res;

  // Users are visited one at a time and each user's transactions are
  // time-sorted, so a category's active (user, day) pairs are counted with
  // a "last user / last day" stamp.
  struct Raw {
    std::size_t user_days = 0;  ///< Distinct (user, day) pairs.
    double usages = 0.0;
    double txns = 0.0;
    double bytes = 0.0;
    const UserView* user_stamp = nullptr;
    int day_stamp = 0;
  };
  std::array<Raw, appdb::kCategoryCount> raw{};

  const auto& log = ctx.store().proxy;
  for (const UserView* u : ctx.wearable_users()) {
    for (std::size_t i = 0; i < u->wearable_rows.size(); ++i) {
      const trace::ProxyRecord& r = log[u->wearable_rows[i]];
      if (!ctx.in_detailed_window(r.timestamp)) continue;
      const auto cat = ctx.signatures().app_category(u->wearable_classes[i].app);
      if (!cat) continue;
      Raw& a = raw[static_cast<std::size_t>(*cat)];
      const int day = util::day_of(r.timestamp);
      if (a.user_stamp != u || a.day_stamp != day) {
        a.user_stamp = u;
        a.day_stamp = day;
        ++a.user_days;
      }
      a.txns += 1.0;
      a.bytes += static_cast<double>(r.bytes_total());
    }
    for (const Usage& usage : u->usages) {
      if (!ctx.in_detailed_window(usage.start)) continue;
      const auto cat = ctx.signatures().app_category(usage.app);
      if (!cat) continue;
      raw[static_cast<std::size_t>(*cat)].usages += 1.0;
    }
  }

  double total_users = 0.0;
  double total_usages = 0.0;
  double total_txns = 0.0;
  double total_bytes = 0.0;
  for (const Raw& a : raw) {
    total_users += static_cast<double>(a.user_days);
    total_usages += a.usages;
    total_txns += a.txns;
    total_bytes += a.bytes;
  }

  for (const appdb::Category c : appdb::all_categories()) {
    const Raw& a = raw[static_cast<std::size_t>(c)];
    CategoryStats s;
    s.category = c;
    if (total_users > 0.0)
      s.user_share_pct =
          100.0 * static_cast<double>(a.user_days) / total_users;
    if (total_usages > 0.0) s.usage_share_pct = 100.0 * a.usages / total_usages;
    if (total_txns > 0.0) s.txn_share_pct = 100.0 * a.txns / total_txns;
    if (total_bytes > 0.0) s.data_share_pct = 100.0 * a.bytes / total_bytes;
    res.by_users.push_back(s);
  }
  std::sort(res.by_users.begin(), res.by_users.end(),
            [](const CategoryStats& a, const CategoryStats& b) {
              return a.user_share_pct > b.user_share_pct;
            });
  for (std::size_t i = 0; i < res.by_users.size(); ++i) {
    res.user_rank[static_cast<std::size_t>(res.by_users[i].category)] = i;
  }
  return res;
}

FigureData figure6(const CategoryResult& r) {
  FigureData fig;
  fig.id = "fig6";
  fig.title = "Daily popularity of app categories (users/usage/txns/data)";
  Series users;
  Series usage;
  Series txns;
  Series data;
  users.name = "associated_users_pct";
  usage.name = "frequency_of_usage_pct";
  txns.name = "transactions_pct";
  data.name = "data_pct";
  for (const CategoryStats& s : r.by_users) {
    const std::string label{appdb::category_name(s.category)};
    users.labels.push_back(label);
    users.y.push_back(s.user_share_pct);
    usage.labels.push_back(label);
    usage.y.push_back(s.usage_share_pct);
    txns.labels.push_back(label);
    txns.y.push_back(s.txn_share_pct);
    data.labels.push_back(label);
    data.y.push_back(s.data_share_pct);
  }
  fig.series = {std::move(users), std::move(usage), std::move(txns),
                std::move(data)};

  const auto rank = [&](appdb::Category c) {
    return static_cast<double>(r.user_rank[static_cast<std::size_t>(c)]);
  };
  fig.checks.push_back(make_check("Communication user rank (1st)", 0,
                                  rank(appdb::Category::kCommunication), 0,
                                  1));
  fig.checks.push_back(make_check("Shopping user rank (2nd)", 1,
                                  rank(appdb::Category::kShopping), 0, 4));
  fig.checks.push_back(make_check("Social user rank (3rd)", 2,
                                  rank(appdb::Category::kSocial), 0, 5));
  fig.checks.push_back(make_check("Weather user rank (4th)", 3,
                                  rank(appdb::Category::kWeather), 0, 5));
  fig.checks.push_back(make_check(
      "Health-Fitness near the bottom (>= 12th)", 13,
      rank(appdb::Category::kHealthFitness), 11, 14));
  fig.checks.push_back(make_check("Lifestyle near the bottom (>= 12th)", 14,
                                  rank(appdb::Category::kLifestyle), 11, 14));
  fig.notes.push_back(
      "Health & Fitness ranks low on cellular because those apps sync over "
      "WiFi (paper conjecture, modelled explicitly)");
  return fig;
}

}  // namespace wearscope::core
