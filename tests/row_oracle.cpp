#include "row_oracle.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace wearscope::oracle {

using namespace core;

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

  void finalize(int weeks) {
    if (total <= 0.0 || weeks <= 0) return;
    const double weekly_total = total / weeks;
    for (std::size_t h = 0; h < 24; ++h) {
      weekday[h] = weekday[h] / std::max(1, weekday_days) / weekly_total;
      weekend[h] = weekend[h] / std::max(1, weekend_days) / weekly_total;
    }
  }
};

}  // namespace

DiurnalResult diurnal_rows(const AnalysisContext& ctx) {
  DiurnalResult res;
  const int weeks = ctx.detailed_weeks();

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

  // Distinct active users per (day, hour) / per day / per week.
  std::unordered_set<std::uint64_t> seen_day_hour;  // user ^ day ^ hour key
  std::unordered_set<std::uint64_t> seen_day;
  std::unordered_set<std::uint64_t> seen_week;
  std::array<std::size_t, 2> weekly_bytes{};  // [weekday, weekend] wearable
  std::array<std::size_t, 2> weekly_bytes_all{};
  std::array<double, 7> dow_txns{};       // Mon..Sun wearable transactions
  std::array<double, 7> dow_user_days{};  // Mon..Sun distinct active users

  for (const UserView* u : ctx.wearable_users()) {
    for (const trace::ProxyRecord* r : u->wearable_txns) {
      if (!ctx.in_detailed_window(r->timestamp)) continue;
      const int day = util::day_of(r->timestamp);
      const int hour = util::hour_of(r->timestamp);
      const std::uint64_t day_hour_key =
          (u->user_id << 16) ^ static_cast<std::uint64_t>(day * 24 + hour);
      if (seen_day_hour.insert(day_hour_key).second) {
        users_acc.add(r->timestamp, 1.0);
      }
      if (seen_day.insert((u->user_id << 12) ^
                          static_cast<std::uint64_t>(day))
              .second) {
        dow_user_days[static_cast<std::size_t>(
            util::weekday_of_day(day))] += 1.0;
      }
      seen_week.insert((u->user_id << 8) ^
                       static_cast<std::uint64_t>(util::week_of(r->timestamp)));
      data_acc.add(r->timestamp, static_cast<double>(r->bytes_total()));
      txns_acc.add(r->timestamp, 1.0);
      weekly_bytes[util::is_weekend(r->timestamp) ? 1 : 0] +=
          r->bytes_total();
      dow_txns[static_cast<std::size_t>(util::weekday_of(r->timestamp))] +=
          1.0;
    }
  }
  // Total traffic (wearable + everything else) for the relative-usage
  // comparison of §4.2.
  for (const trace::ProxyRecord& r : ctx.store().proxy) {
    if (!ctx.in_detailed_window(r.timestamp)) continue;
    weekly_bytes_all[util::is_weekend(r.timestamp) ? 1 : 0] += r.bytes_total();
  }

  users_acc.finalize(weeks);
  data_acc.finalize(weeks);
  txns_acc.finalize(weeks);
  res.users_weekday = users_acc.weekday;
  res.users_weekend = users_acc.weekend;
  res.data_weekday = data_acc.weekday;
  res.data_weekend = data_acc.weekend;
  res.txns_weekday = txns_acc.weekday;
  res.txns_weekend = txns_acc.weekend;

  if (!seen_week.empty()) {
    // days in window = weeks * 7; mean distinct users per day over mean
    // distinct users per week.
    const double per_day =
        static_cast<double>(seen_day.size()) / (weeks * 7.0);
    const double per_week = static_cast<double>(seen_week.size()) / weeks;
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

UsageResult usage_rows(const AnalysisContext& ctx) {
  struct RawUsage {
    double txns = 0.0;
    double bytes = 0.0;
    double duration_s = 0.0;
    std::size_t usages = 0;
  };
  std::unordered_map<appdb::AppId, RawUsage> raw;
  for (const UserView* u : ctx.wearable_users()) {
    for (const Usage& usage : u->usages) {
      if (!ctx.in_detailed_window(usage.start)) continue;
      if (usage.app == kUnknownApp) continue;
      RawUsage& a = raw[usage.app];
      a.txns += usage.transactions;
      a.bytes += static_cast<double>(usage.bytes);
      a.duration_s += static_cast<double>(usage.duration_s());
      a.usages += 1;
    }
  }
  UsageResult res;
  for (const auto& [app, a] : raw) {
    PerUsageStats s;
    s.app = app;
    s.name = std::string(ctx.signatures().app_name(app));
    s.usages = a.usages;
    s.mean_txns_per_usage = a.txns / static_cast<double>(a.usages);
    s.mean_kb_per_usage = a.bytes / static_cast<double>(a.usages) / 1000.0;
    s.mean_duration_s = a.duration_s / static_cast<double>(a.usages);
    res.apps.push_back(std::move(s));
  }
  std::sort(res.apps.begin(), res.apps.end(),
            [](const PerUsageStats& a, const PerUsageStats& b) {
              return a.mean_kb_per_usage > b.mean_kb_per_usage;
            });
  return res;
}

ThirdPartyResult thirdparty_rows(const AnalysisContext& ctx) {
  struct Raw {
    std::unordered_set<trace::UserId> users;
    double txns = 0.0;
    double bytes = 0.0;
  };
  std::array<Raw, appdb::kTransactionClassCount> sets{};

  for (const UserView* u : ctx.wearable_users()) {
    for (std::size_t i = 0; i < u->wearable_txns.size(); ++i) {
      const trace::ProxyRecord* r = u->wearable_txns[i];
      if (!ctx.in_detailed_window(r->timestamp)) continue;
      Raw& a = sets[static_cast<std::size_t>(u->wearable_classes[i].cls)];
      a.users.insert(u->user_id);
      a.txns += 1.0;
      a.bytes += static_cast<double>(r->bytes_total());
    }
  }
  ThirdPartyResult res;
  double total_users = 0.0;
  double total_txns = 0.0;
  double total_bytes = 0.0;
  for (const Raw& a : sets) {
    total_users += static_cast<double>(a.users.size());
    total_txns += a.txns;
    total_bytes += a.bytes;
  }
  for (std::size_t c = 0; c < appdb::kTransactionClassCount; ++c) {
    ClassStats& s = res.classes[c];
    s.cls = static_cast<appdb::TransactionClass>(c);
    if (total_users > 0.0)
      s.user_share_pct =
          100.0 * static_cast<double>(sets[c].users.size()) / total_users;
    if (total_txns > 0.0) s.txn_share_pct = 100.0 * sets[c].txns / total_txns;
    if (total_bytes > 0.0)
      s.data_share_pct = 100.0 * sets[c].bytes / total_bytes;
  }
  using appdb::TransactionClass;
  const auto bytes_of = [&sets](TransactionClass c) {
    return sets[static_cast<std::size_t>(c)].bytes;
  };
  const double third_bytes = bytes_of(TransactionClass::kUtilities) +
                             bytes_of(TransactionClass::kAdvertising) +
                             bytes_of(TransactionClass::kAnalytics);
  if (third_bytes > 0.0) {
    res.app_over_thirdparty_data =
        bytes_of(TransactionClass::kApplication) / third_bytes;
  }
  return res;
}

trace::ProxyColumns proxy_columns_rows(
    const std::vector<trace::ProxyRecord>& rows,
    const trace::StringPool& hosts) {
  trace::ProxyColumns cols;
  const std::size_t n = rows.size();
  cols.timestamp.resize(n);
  cols.user_id.resize(n);
  cols.tac_id.resize(n);
  cols.protocol.resize(n);
  cols.host_id.resize(n);
  cols.bytes_up.resize(n);
  cols.bytes_down.resize(n);
  cols.bytes_total.resize(n);
  cols.duration_ms.resize(n);
  std::unordered_map<trace::Tac, std::uint32_t> tac_ids;
  std::unordered_map<std::string, std::uint32_t> host_ids;
  for (std::size_t i = 0; i < n; ++i) {
    const trace::ProxyRecord& r = rows[i];
    cols.timestamp[i] = r.timestamp;
    cols.user_id[i] = r.user_id;
    const auto next_tac = static_cast<std::uint32_t>(cols.tacs.size());
    const auto [tac, new_tac] = tac_ids.emplace(r.tac, next_tac);
    if (new_tac) cols.tacs.push_back(r.tac);
    cols.tac_id[i] = tac->second;
    cols.protocol[i] = static_cast<std::uint8_t>(r.protocol);
    const std::string& name = hosts[r.host_id];
    const auto next_host = static_cast<std::uint32_t>(cols.hosts.size());
    const auto [host, new_host] = host_ids.emplace(name, next_host);
    if (new_host) cols.hosts.push_back(name);
    cols.host_id[i] = host->second;
    cols.bytes_up[i] = r.bytes_up;
    cols.bytes_down[i] = r.bytes_down;
    cols.bytes_total[i] = r.bytes_total();
    cols.duration_ms[i] = r.duration_ms;
  }
  return cols;
}

}  // namespace wearscope::oracle
