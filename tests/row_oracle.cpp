#include "row_oracle.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "par/shard.h"
#include "trace/log_reader.h"
#include "util/error.h"
#include "util/geo.h"
#include "util/mapped_file.h"
#include "util/stats.h"
#include "util/strings.h"

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
    for (const std::uint32_t row : u->wearable_rows) {
      const trace::ProxyRecord* r = &ctx.store().proxy[row];
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
    for (std::size_t i = 0; i < u->wearable_rows.size(); ++i) {
      const trace::ProxyRecord* r = &ctx.store().proxy[u->wearable_rows[i]];
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

CohortResult cohorts_rows(const AnalysisContext& ctx) {
  CohortResult res;

  struct Raw {
    trace::Tac tac = 0;
    std::string manufacturer;
    std::string os;
    std::set<trace::UserId> users;
    std::set<trace::UserId> active_users;
    double txns = 0.0;
    double bytes = 0.0;
    std::set<std::pair<trace::UserId, int>> active_user_days;
  };
  // Key by model name: several TACs may belong to one commercial model.
  std::map<std::string, Raw> raw;

  std::unordered_map<trace::Tac, const trace::DeviceRecord*> device_index;
  device_index.reserve(ctx.store().devices.size());
  for (const trace::DeviceRecord& d : ctx.store().devices) {
    device_index.emplace(d.tac, &d);
  }
  const auto model_of = [&](trace::Tac tac) -> const trace::DeviceRecord* {
    const auto it = device_index.find(tac);
    return it == device_index.end() ? nullptr : it->second;
  };

  for (const UserView& u : ctx.users()) {
    for (const std::uint32_t row : u.mme_rows) {
      const trace::MmeRecord* r = &ctx.store().mme[row];
      if (!ctx.devices().is_wearable(r->tac)) continue;
      const trace::DeviceRecord* d = model_of(r->tac);
      if (d == nullptr) continue;
      Raw& a = raw[d->model];
      if (a.users.empty()) {
        a.tac = d->tac;
        a.manufacturer = d->manufacturer;
        a.os = d->os;
      }
      a.users.insert(u.user_id);
    }
    for (const std::uint32_t row : u.wearable_rows) {
      const trace::ProxyRecord* r = &ctx.store().proxy[row];
      const trace::DeviceRecord* d = model_of(r->tac);
      if (d == nullptr) continue;
      Raw& a = raw[d->model];
      a.active_users.insert(u.user_id);
      if (!ctx.in_detailed_window(r->timestamp)) continue;
      a.txns += 1.0;
      a.bytes += static_cast<double>(r->bytes_total());
      a.active_user_days.emplace(u.user_id, util::day_of(r->timestamp));
    }
  }

  double total_users = 0.0;
  std::map<std::string, double> by_vendor;
  for (auto& [model, a] : raw) {
    ModelCohort c;
    c.tac = a.tac;
    c.model = model;
    c.manufacturer = a.manufacturer;
    c.os = a.os;
    c.users = a.users.size();
    c.active_users = a.active_users.size();
    c.txns = a.txns;
    c.bytes = a.bytes;
    if (!a.active_users.empty()) {
      c.mean_active_days = static_cast<double>(a.active_user_days.size()) /
                           static_cast<double>(a.active_users.size());
    }
    total_users += static_cast<double>(c.users);
    by_vendor[c.manufacturer] += static_cast<double>(c.users);
    res.models.push_back(std::move(c));
  }
  std::sort(res.models.begin(), res.models.end(),
            [](const ModelCohort& a, const ModelCohort& b) {
              return a.users > b.users;
            });

  for (const auto& [vendor, users] : by_vendor) {
    res.manufacturer_share.emplace_back(
        vendor, total_users > 0.0 ? users / total_users : 0.0);
  }
  std::sort(res.manufacturer_share.begin(), res.manufacturer_share.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [vendor, share] : res.manufacturer_share) {
    if (vendor == "Samsung" || vendor == "LG") res.samsung_lg_share += share;
  }
  return res;
}

RetentionResult retention_rows(const AnalysisContext& ctx) {
  RetentionResult res;
  const int weeks = ctx.options().observation_days / 7;
  if (weeks <= 0) return res;

  struct Presence {
    int first_week = 1 << 30;
    std::set<int> weeks;
  };
  std::map<trace::UserId, Presence> users;
  for (const trace::MmeRecord& r : ctx.store().mme) {
    if (!ctx.devices().is_wearable(r.tac)) continue;
    const int w = util::week_of(r.timestamp);
    if (w < 0 || w >= weeks) continue;
    Presence& p = users[r.user_id];
    p.first_week = std::min(p.first_week, w);
    p.weeks.insert(w);
  }

  std::map<int, std::vector<const Presence*>> cohorts;
  for (const auto& [id, p] : users) cohorts[p.first_week].push_back(&p);

  for (const auto& [week, members] : cohorts) {
    Cohort c;
    c.adoption_week = week;
    c.size = members.size();
    const int horizon = weeks - week;
    c.survival.resize(static_cast<std::size_t>(horizon), 0.0);
    for (const Presence* p : members) {
      for (const int w : p->weeks) {
        c.survival[static_cast<std::size_t>(w - week)] += 1.0;
      }
    }
    for (double& v : c.survival) v /= static_cast<double>(c.size);
    res.cohorts.push_back(std::move(c));
  }

  const auto mean_survival_at = [&](int k) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const Cohort& c : res.cohorts) {
      if (static_cast<int>(c.survival.size()) > k && c.size >= 5) {
        sum += c.survival[static_cast<std::size_t>(k)];
        ++n;
      }
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
  };
  res.survival_4w = mean_survival_at(4);
  res.survival_8w = mean_survival_at(8);
  res.survival_12w = mean_survival_at(12);
  return res;
}

namespace {

struct UserMobility {
  double mean_daily_max_displacement_km = 0.0;
  double entropy_bits = 0.0;
  bool has_mme = false;
};

UserMobility mobility_of(const AnalysisContext& ctx, const UserView& u) {
  UserMobility out;
  std::map<int, std::vector<const trace::MmeRecord*>> by_day;
  for (const std::uint32_t row : u.mme_rows) {
    const trace::MmeRecord* r = &ctx.store().mme[row];
    if (!ctx.in_detailed_window(r->timestamp)) continue;
    by_day[util::day_of(r->timestamp)].push_back(r);
  }
  if (by_day.empty()) return out;
  out.has_mme = true;

  std::unordered_map<trace::SectorId, double> dwell_s;
  std::vector<trace::SectorId> first_seen;  // the entropy's summation order
  util::OnlineStats daily_disp;
  for (const auto& [day, events] : by_day) {
    const util::SimTime day_end = util::day_start(day + 1);
    for (std::size_t i = 0; i < events.size(); ++i) {
      const util::SimTime until =
          i + 1 < events.size() ? events[i + 1]->timestamp : day_end;
      const auto [it, fresh] = dwell_s.try_emplace(events[i]->sector_id, 0.0);
      if (fresh) first_seen.push_back(events[i]->sector_id);
      it->second += static_cast<double>(
          std::max<util::SimTime>(0, until - events[i]->timestamp));
    }
    std::set<trace::SectorId> sectors;
    for (const trace::MmeRecord* e : events) sectors.insert(e->sector_id);
    double best = 0.0;
    for (auto i = sectors.begin(); i != sectors.end(); ++i) {
      const auto pi = ctx.store().find_sector(*i);
      if (!pi) continue;
      for (auto j = std::next(i); j != sectors.end(); ++j) {
        const auto pj = ctx.store().find_sector(*j);
        if (!pj) continue;
        best = std::max(best, util::haversine_km(pi->position, pj->position));
      }
    }
    daily_disp.add(best);
  }
  out.mean_daily_max_displacement_km = daily_disp.mean();

  std::vector<double> dwells;
  dwells.reserve(first_seen.size());
  for (const trace::SectorId sector : first_seen)
    dwells.push_back(dwell_s.at(sector));
  out.entropy_bits = util::shannon_entropy(dwells);
  return out;
}

/// The sector of the user's last MME event at or before `t`, else of the
/// first event; nullopt without MME events.
std::optional<trace::SectorId> sector_at(const AnalysisContext& ctx,
                                         const UserView& user,
                                         util::SimTime t) {
  const auto& mme = ctx.store().mme;
  if (user.mme_rows.empty()) return std::nullopt;
  const auto it = std::upper_bound(
      user.mme_rows.begin(), user.mme_rows.end(), t,
      [&mme](util::SimTime value, std::uint32_t row) {
        return value < mme[row].timestamp;
      });
  if (it == user.mme_rows.begin()) return mme[*it].sector_id;
  return mme[*(it - 1)].sector_id;
}

}  // namespace

MobilityResult mobility_rows(const AnalysisContext& ctx) {
  MobilityResult res;

  std::vector<double> wear_disp;
  std::vector<double> all_disp;
  std::vector<double> wear_disp_nonzero;
  std::vector<double> all_disp_nonzero;
  util::OnlineStats wear_entropy;
  util::OnlineStats all_entropy;
  std::vector<double> rel_disp;
  std::vector<double> rel_txns;

  std::size_t transacting = 0;
  std::size_t single_location = 0;

  for (const UserView& u : ctx.users()) {
    const UserMobility m = mobility_of(ctx, u);
    if (!m.has_mme) continue;
    all_disp.push_back(m.mean_daily_max_displacement_km);
    all_entropy.add(m.entropy_bits);
    if (m.mean_daily_max_displacement_km > 0.0)
      all_disp_nonzero.push_back(m.mean_daily_max_displacement_km);

    if (u.has_wearable) {
      wear_disp.push_back(m.mean_daily_max_displacement_km);
      wear_entropy.add(m.entropy_bits);
      if (m.mean_daily_max_displacement_km > 0.0)
        wear_disp_nonzero.push_back(m.mean_daily_max_displacement_km);

      std::set<int> active_hours;
      std::size_t txns = 0;
      std::set<trace::SectorId> txn_sectors;
      for (const std::uint32_t row : u.wearable_rows) {
        const trace::ProxyRecord* r = &ctx.store().proxy[row];
        if (!ctx.in_detailed_window(r->timestamp)) continue;
        ++txns;
        active_hours.insert(util::day_of(r->timestamp) * 24 +
                            util::hour_of(r->timestamp));
        if (const auto sec = sector_at(ctx, u, r->timestamp))
          txn_sectors.insert(*sec);
      }
      if (txns > 0) {
        ++transacting;
        if (txn_sectors.size() <= 1) ++single_location;
        if (txns >= 5) {
          rel_disp.push_back(m.mean_daily_max_displacement_km);
          rel_txns.push_back(static_cast<double>(txns) /
                             static_cast<double>(active_hours.size()));
        }
      }
    }
  }

  res.wearable_displacement_km = util::Ecdf(wear_disp);
  res.all_displacement_km = util::Ecdf(all_disp);
  res.wearable_mean_km = res.wearable_displacement_km.mean();
  res.all_mean_km = res.all_displacement_km.mean();
  if (res.all_mean_km > 0.0)
    res.displacement_ratio = res.wearable_mean_km / res.all_mean_km;
  if (res.wearable_displacement_km.size() > 0)
    res.frac_under_30km = res.wearable_displacement_km.at(30.0);

  res.wearable_entropy_bits = wear_entropy.mean();
  res.all_entropy_bits = all_entropy.mean();
  if (res.all_entropy_bits > 0.0)
    res.entropy_ratio = res.wearable_entropy_bits / res.all_entropy_bits;

  if (transacting > 0) {
    res.single_location_fraction = static_cast<double>(single_location) /
                                   static_cast<double>(transacting);
  }
  const double wear_nz = util::mean(wear_disp_nonzero);
  const double all_nz = util::mean(all_disp_nonzero);
  if (all_nz > 0.0) res.nonstationary_ratio = wear_nz / all_nz;

  res.displacement_vs_txns = util::binned_relation(rel_disp, rel_txns, 10);
  res.mobility_activity_corr = util::spearman(rel_disp, rel_txns);
  std::vector<double> log_txns;
  log_txns.reserve(rel_txns.size());
  for (const double v : rel_txns) log_txns.push_back(std::log10(1.0 + v));
  const util::BinnedRelation log_rel =
      util::binned_relation(rel_disp, log_txns, 10);
  res.binned_trend_corr =
      util::pearson(log_rel.x_centers, log_rel.y_means);
  return res;
}

namespace {

/// One log of the bundle streamed row by row through trace::LogCursor,
/// checked for the (time, user) order the feed merge relies on.
template <typename Record>
class SortedLog {
 public:
  explicit SortedLog(const std::filesystem::path& path)
      : path_(path.string()), in_(path, std::ios::binary), cursor_(in_) {
    if (!in_.is_open()) throw util::IoError("cannot open " + path_);
    last_.timestamp = std::numeric_limits<util::SimTime>::min();
  }
  /// cursor_ holds the address of in_.
  SortedLog(const SortedLog&) = delete;
  SortedLog& operator=(const SortedLog&) = delete;

  trace::ProxyPools& pools() noexcept { return cursor_.pools(); }

  /// The next record, or nullptr at a clean end of log.
  const Record* next() {
    const Record* r = nullptr;
    try {
      r = cursor_.next();
    } catch (const util::ParseError& e) {
      throw util::ParseError(path_ + ": " + e.what());
    }
    if (r == nullptr) return nullptr;
    if (trace::ByTimeThenUser{}(*r, last_)) {
      throw util::ParseError(path_ + ": log is not (time, user)-sorted");
    }
    last_.timestamp = r->timestamp;
    last_.user_id = r->user_id;
    return r;
  }

 private:
  std::string path_;
  std::ifstream in_;
  trace::LogCursor<Record> cursor_;
  Record last_;
};

void append_op(std::vector<std::uint32_t>& ops, fed::FeedOp kind) {
  const std::uint32_t tag = static_cast<std::uint32_t>(kind)
                            << fed::kFeedOpCountBits;
  if (!ops.empty() && (ops.back() & ~fed::kFeedOpMaxRun) == tag &&
      fed::feed_op_count(ops.back()) < fed::kFeedOpMaxRun) {
    ++ops.back();
    return;
  }
  ops.push_back(tag | 1u);
}

}  // namespace

fed::PartitionFeed partition_feed_rows(const std::filesystem::path& dir,
                                       std::size_t partition_id,
                                       std::size_t partition_count) {
  fed::PartitionFeed feed;
  feed.partition_id = static_cast<std::uint32_t>(partition_id);
  feed.partition_count = static_cast<std::uint32_t>(partition_count);
  {
    const util::MappedFile devices(dir / "devices.bin",
                                   util::MapMode::kReadWholeFile);
    feed.devices = trace::read_binary_log<trace::DeviceRecord>(
        devices.bytes());
  }
  SortedLog<trace::ProxyRecord> proxy(dir / "proxy.bin");
  SortedLog<trace::MmeRecord> mme(dir / "mme.bin");
  const trace::ProxyRecord* p = proxy.next();
  const trace::MmeRecord* m = mme.next();
  while (p != nullptr || m != nullptr) {
    // MME before proxy on equal stamps.
    if (m != nullptr && (p == nullptr || m->timestamp <= p->timestamp)) {
      if (par::shard_of(m->user_id, partition_count) == partition_id) {
        feed.mme.push_back(*m);
        append_op(feed.ops, fed::FeedOp::kPushMme);
      } else {
        append_op(feed.ops, fed::FeedOp::kSkipMme);
      }
      m = mme.next();
    } else {
      if (par::shard_of(p->user_id, partition_count) == partition_id) {
        feed.proxy.push_back(*p);
        append_op(feed.ops, fed::FeedOp::kPushProxy);
      } else {
        append_op(feed.ops, fed::FeedOp::kSkipProxy);
      }
      p = proxy.next();
    }
    ++feed.feed_records;
  }
  static_cast<trace::ProxyPools&>(feed) = std::move(proxy.pools());
  return feed;
}

core::ThroughDeviceResult throughdevice_rows(const AnalysisContext& ctx) {
  ThroughDeviceResult res;
  const auto sigs = appdb::companion_signatures();
  res.per_signature.assign(sigs.size(), 0);
  for (const appdb::CompanionSignature& s : sigs)
    res.signature_names.push_back(s.wearable);
  const double days = ctx.options().observation_days -
                      ctx.options().detailed_start_day;
  std::vector<double> td_txns, td_bytes, td_entropy;
  std::vector<double> sim_txns, sim_bytes, sim_entropy;
  std::array<double, 24> td_hours{};
  std::array<double, 24> sim_hours{};
  for (const UserView& u : ctx.users()) {
    double txns = 0.0;
    double bytes = 0.0;
    std::array<double, 24> hours{};
    std::vector<bool> matched(sigs.size(), false);
    for (const std::uint32_t row : u.phone_rows) {
      const trace::ProxyRecord* r = &ctx.store().proxy[row];
      if (!ctx.in_detailed_window(r->timestamp)) continue;
      txns += 1.0;
      bytes += static_cast<double>(r->bytes_total());
      hours[static_cast<std::size_t>(util::hour_of(r->timestamp))] += 1.0;
      const std::string& host = ctx.store().hosts[r->host_id];
      for (std::size_t s = 0; s < sigs.size(); ++s) {
        for (const std::string& d : sigs[s].domains) {
          if (util::host_matches_suffix(host, d)) matched[s] = true;
        }
      }
    }
    const bool any = std::find(matched.begin(), matched.end(), true) !=
                     matched.end();
    if (u.has_wearable) {
      sim_txns.push_back(txns / days);
      sim_bytes.push_back(bytes / days);
      sim_entropy.push_back(user_location_entropy(ctx, u));
      for (std::size_t h = 0; h < 24; ++h) sim_hours[h] += hours[h];
    } else if (any) {
      ++res.detected_users;
      for (std::size_t s = 0; s < sigs.size(); ++s) {
        if (matched[s]) ++res.per_signature[s];
      }
      td_txns.push_back(txns / days);
      td_bytes.push_back(bytes / days);
      td_entropy.push_back(user_location_entropy(ctx, u));
      for (std::size_t h = 0; h < 24; ++h) td_hours[h] += hours[h];
    }
  }
  const double sim_txn_med = util::median(sim_txns);
  const double sim_byte_med = util::median(sim_bytes);
  const double sim_entropy_med = util::median(sim_entropy);
  if (sim_txn_med > 0.0)
    res.daily_txn_ratio = util::median(td_txns) / sim_txn_med;
  if (sim_byte_med > 0.0)
    res.daily_bytes_ratio = util::median(td_bytes) / sim_byte_med;
  if (sim_entropy_med > 0.0)
    res.entropy_ratio = util::median(td_entropy) / sim_entropy_med;
  const auto shares = [](std::array<double, 24> h) {
    double total = 0.0;
    for (const double v : h) total += v;
    if (total > 0.0) {
      for (double& v : h) v /= total;
    }
    return h;
  };
  res.td_hourly = shares(td_hours);
  res.sim_hourly = shares(sim_hours);
  res.diurnal_similarity = util::pearson(
      std::span<const double>(res.td_hourly.data(), res.td_hourly.size()),
      std::span<const double>(res.sim_hourly.data(), res.sim_hourly.size()));
  return res;
}

bool sorted_rows(const trace::TraceStore& store) {
  return std::is_sorted(store.proxy.begin(), store.proxy.end(),
                        trace::ByTimeThenUser{}) &&
         std::is_sorted(store.mme.begin(), store.mme.end(),
                        trace::ByTimeThenUser{}) &&
         trace::pools_canonical(store.proxy, store);
}

}  // namespace wearscope::oracle
