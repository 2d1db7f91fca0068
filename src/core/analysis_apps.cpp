#include "core/analysis_apps.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "util/stats.h"

namespace wearscope::core {

namespace {

/// Users are visited one at a time and each user's transactions are
/// time-sorted, so an app's distinct users and active (user, day) pairs
/// are counted with "last user / last day" stamps.
struct RawAppAgg {
  std::size_t user_days = 0;  ///< Distinct (user, day) pairs.
  std::size_t users = 0;
  double usages = 0.0;
  double txns = 0.0;
  double bytes = 0.0;
  const UserView* user_stamp = nullptr;
  int day_stamp = 0;
};

}  // namespace

AppPopularityResult analyze_apps(const AnalysisContext& ctx) {
  AppPopularityResult res;

  std::unordered_map<appdb::AppId, RawAppAgg> agg;
  double unknown_txns = 0.0;
  double total_txns = 0.0;

  std::vector<double> apps_per_user;
  std::size_t day_count = 0;
  std::size_t one_app_days = 0;

  const auto& log = ctx.store().proxy;
  for (const UserView* u : ctx.wearable_users()) {
    std::set<appdb::AppId> user_apps;
    std::map<int, std::set<appdb::AppId>> apps_by_day;
    for (std::size_t i = 0; i < u->wearable_rows.size(); ++i) {
      const trace::ProxyRecord& r = log[u->wearable_rows[i]];
      if (!ctx.in_detailed_window(r.timestamp)) continue;
      total_txns += 1.0;
      const appdb::AppId app = u->wearable_classes[i].app;
      if (app == kUnknownApp) {
        unknown_txns += 1.0;
        continue;
      }
      RawAppAgg& a = agg[app];
      const int day = util::day_of(r.timestamp);
      if (a.user_stamp != u) {
        a.user_stamp = u;
        ++a.users;
        a.day_stamp = day;
        ++a.user_days;
      } else if (a.day_stamp != day) {
        a.day_stamp = day;
        ++a.user_days;
      }
      a.txns += 1.0;
      a.bytes += static_cast<double>(r.bytes_total());
      user_apps.insert(app);
      apps_by_day[day].insert(app);
    }
    for (const Usage& usage : u->usages) {
      if (!ctx.in_detailed_window(usage.start)) continue;
      if (usage.app == kUnknownApp) continue;
      agg[usage.app].usages += 1.0;
    }
    if (!user_apps.empty())
      apps_per_user.push_back(static_cast<double>(user_apps.size()));
    for (const auto& [day, day_apps] : apps_by_day) {
      ++day_count;
      if (day_apps.size() == 1) ++one_app_days;
    }
  }

  if (total_txns > 0.0) res.unknown_traffic_fraction = unknown_txns / total_txns;

  // Totals for share normalization ("percentage of daily total of all
  // applications").
  double total_user_days = 0.0;
  double total_used_days_rate = 0.0;
  double total_usages = 0.0;
  double total_app_txns = 0.0;
  double total_bytes = 0.0;
  for (const auto& [app, a] : agg) {
    total_user_days += static_cast<double>(a.user_days);
    total_used_days_rate += static_cast<double>(a.user_days) /
                            static_cast<double>(a.users);
    total_usages += a.usages;
    total_app_txns += a.txns;
    total_bytes += a.bytes;
  }

  for (const auto& [app, a] : agg) {
    AppStats s;
    s.app = app;
    s.name = std::string(ctx.signatures().app_name(app));
    if (total_user_days > 0.0)
      s.user_share_pct =
          100.0 * static_cast<double>(a.user_days) / total_user_days;
    if (total_used_days_rate > 0.0)
      s.used_days_pct = 100.0 *
                        (static_cast<double>(a.user_days) /
                         static_cast<double>(a.users)) /
                        total_used_days_rate;
    if (total_usages > 0.0) s.usage_share_pct = 100.0 * a.usages / total_usages;
    if (total_app_txns > 0.0) s.txn_share_pct = 100.0 * a.txns / total_app_txns;
    if (total_bytes > 0.0) s.data_share_pct = 100.0 * a.bytes / total_bytes;
    res.apps.push_back(std::move(s));
  }
  std::sort(res.apps.begin(), res.apps.end(),
            [](const AppStats& a, const AppStats& b) {
              return a.user_share_pct > b.user_share_pct;
            });

  res.mean_apps_per_user = util::mean(apps_per_user);
  if (!apps_per_user.empty()) {
    const util::Ecdf e(apps_per_user);
    res.frac_users_under_20 = e.at(20.0 - 1e-9);
    res.max_apps_per_user = e.sorted().back();
  }
  if (day_count > 0) {
    res.one_app_day_fraction =
        static_cast<double>(one_app_days) / static_cast<double>(day_count);
  }
  return res;
}

namespace {

/// True for the 50 apps the paper names in Fig. 5 (the generated long tail
/// uses the reserved "LongTail-" prefix).
bool is_named_app(const AppStats& a) {
  return !a.name.starts_with("LongTail-") && a.name != "Unknown";
}

/// The named apps of `apps`, order preserved (descending user share).
std::vector<const AppStats*> named_only(const std::vector<AppStats>& apps) {
  std::vector<const AppStats*> out;
  for (const AppStats& a : apps)
    if (is_named_app(a)) out.push_back(&a);
  return out;
}

/// Rank of an app name among the named apps; large sentinel when absent.
std::size_t rank_of(const std::vector<const AppStats*>& apps,
                    std::string_view name) {
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (apps[i]->name == name) return i;
  }
  return 1'000'000;
}

Series bars(const char* name, const std::vector<const AppStats*>& apps,
            double AppStats::* field, std::size_t limit = 50) {
  Series s;
  s.name = name;
  for (std::size_t i = 0; i < apps.size() && i < limit; ++i) {
    s.labels.push_back(apps[i]->name);
    s.y.push_back(*apps[i].*field);
  }
  return s;
}

}  // namespace

FigureData figure5a(const AppPopularityResult& r) {
  FigureData fig;
  fig.id = "fig5a";
  fig.title = "App popularity: daily associated users and app-used days";
  const std::vector<const AppStats*> named = named_only(r.apps);
  fig.series.push_back(
      bars("daily_associated_users_pct", named, &AppStats::user_share_pct));
  fig.series.push_back(
      bars("app_used_days_per_user_pct", named, &AppStats::used_days_pct));

  const std::size_t weather = rank_of(named, "Weather");
  const std::size_t accu = rank_of(named, "Accuweather");
  const std::size_t gmaps = rank_of(named, "Google-Maps");
  const std::size_t pay = std::min(rank_of(named, "Samsung-Pay"),
                                   rank_of(named, "Android-Pay"));
  fig.checks.push_back(make_check("Weather app rank (1st)", 0,
                                  static_cast<double>(weather), 0, 2));
  fig.checks.push_back(make_check("Accuweather rank (3rd)", 2,
                                  static_cast<double>(accu), 0, 6));
  fig.checks.push_back(make_check("Google-Maps rank (2nd)", 1,
                                  static_cast<double>(gmaps), 0, 5));
  fig.checks.push_back(make_check("best payment-app rank (top 10)", 8,
                                  static_cast<double>(pay), 0, 14));
  if (named.size() >= 20) {
    const double decay =
        named.front()->user_share_pct /
        std::max(1e-9, named[19]->user_share_pct);
    fig.checks.push_back(make_check(
        "popularity decay: rank1/rank20 users (exponential)", 20.0, decay,
        5.0, 500.0));
  }
  // §4.3 per-user app statistics ride along with Fig. 5a.
  fig.checks.push_back(make_check("mean apps observed per user", 8.0,
                                  r.mean_apps_per_user, 1.5, 12.0));
  fig.checks.push_back(make_check("users with < 20 apps", 0.90,
                                  r.frac_users_under_20, 0.85, 1.0));
  fig.checks.push_back(make_check("days running a single app", 0.93,
                                  r.one_app_day_fraction, 0.85, 0.99));
  fig.notes.push_back(
      "the paper counts installed Internet-capable apps; passive traffic "
      "only reveals apps actually used on cellular, so the observed mean "
      "sits below the installed mean");
  return fig;
}

FigureData figure5b(const AppPopularityResult& r) {
  FigureData fig;
  fig.id = "fig5b";
  fig.title = "Frequency of app usage, transactions and data per day";
  const std::vector<const AppStats*> named = named_only(r.apps);
  fig.series.push_back(
      bars("frequency_of_usage_pct", named, &AppStats::usage_share_pct));
  fig.series.push_back(
      bars("transactions_pct", named, &AppStats::txn_share_pct));
  fig.series.push_back(bars("data_pct", named, &AppStats::data_share_pct));

  const auto find = [&](std::string_view name) -> const AppStats* {
    for (const AppStats& a : r.apps)
      if (a.name == name) return &a;
    return nullptr;
  };
  if (const AppStats* wa = find("WhatsApp"); wa != nullptr &&
                                             wa->txn_share_pct > 0.0) {
    fig.checks.push_back(make_check(
        "WhatsApp data share / txn share (media-heavy, >1)", 3.0,
        wa->data_share_pct / wa->txn_share_pct, 1.2, 60.0));
  }
  if (const AppStats* ms = find("Messenger"); ms != nullptr &&
                                              ms->data_share_pct > 0.0) {
    fig.checks.push_back(make_check(
        "Messenger txn share / data share (notification-heavy, >1)", 3.0,
        ms->txn_share_pct / ms->data_share_pct, 1.2, 60.0));
  }
  if (const AppStats* we = find("Weather"); we != nullptr) {
    fig.checks.push_back(make_check("Weather transaction share (high)", 15.0,
                                    we->txn_share_pct, 5.0, 45.0));
  }
  return fig;
}

}  // namespace wearscope::core
