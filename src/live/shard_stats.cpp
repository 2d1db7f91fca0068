#include "live/shard_stats.h"

#include <utility>

#include "util/error.h"
#include "util/sim_time.h"

namespace wearscope::live {

void SectorTally::merge(const SectorTally& other) {
  for (const auto& [sector, counter] : other.sectors) {
    Counter& mine = sectors[sector];
    mine.events += counter.events;
    mine.attaches += counter.attaches;
    mine.handovers += counter.handovers;
    mine.wearable_events += counter.wearable_events;
    mine.distinct_users += counter.distinct_users;
    mine.wearable_users += counter.wearable_users;
  }
}

void SketchTally::merge(const SketchTally& other) {
  enabled = enabled || other.enabled;
  registered_users.merge(other.registered_users);
  transacting_users.merge(other.transacting_users);
  txn_sizes.merge(other.txn_sizes);
  apps.merge(other.apps);
}

std::size_t SketchTally::memory_bytes() const {
  return registered_users.memory_bytes() + transacting_users.memory_bytes() +
         txn_sizes.memory_bytes() + apps.memory_bytes();
}

void AppTally::merge(const AppTally& other) {
  for (const auto& [app, counter] : other.apps) {
    Counter& mine = apps[app];
    mine.transactions += counter.transactions;
    mine.bytes += counter.bytes;
    mine.usages += counter.usages;
    mine.distinct_users += counter.distinct_users;
  }
  for (std::size_t c = 0; c < class_txns.size(); ++c) {
    class_txns[c] += other.class_txns[c];
  }
}

ShardStats::ShardStats(const core::DeviceClassifier& devices,
                       const core::AppSignatureTable& signatures,
                       const HostBinding& hosts, int observation_days,
                       int detailed_start_day, util::SimTime usage_gap_s,
                       bool sketch_mode)
    : devices_(&devices),
      signatures_(&signatures),
      hosts_(&hosts),
      usage_gap_s_(usage_gap_s),
      detailed_start_(util::day_start(detailed_start_day)),
      sketch_mode_(sketch_mode),
      adoption_(devices, observation_days),
      activity_(devices, observation_days, detailed_start_day) {
  sketch_.enabled = sketch_mode;
}

namespace {

/// The entry of `visits` whose `key` is `want`, or null.  Searches newest
/// first and moves a hit to the back: a user's events keep returning to
/// the same few sectors and apps, so most finds take one or two probes.
template <typename Visit, typename Key>
Visit* find_recent(std::vector<Visit>& visits, Key Visit::*key, Key want) {
  for (std::size_t i = visits.size(); i-- > 0;) {
    if (visits[i].*key == want) {
      std::swap(visits[i], visits.back());
      return &visits.back();
    }
  }
  return nullptr;
}

}  // namespace

ShardStats::SectorVisit& ShardStats::visit_sector(UserSlot& user,
                                                  trace::SectorId sector) {
  if (SectorVisit* seen = find_recent(user.sectors, &SectorVisit::sector,
                                      sector)) {
    return *seen;
  }
  SectorTally::Counter& counter = sector_tally_.sectors[sector];
  counter.distinct_users += 1;
  return user.sectors.emplace_back(SectorVisit{sector, false, &counter});
}

ShardStats::AppVisit& ShardStats::visit_app(UserSlot& user, appdb::AppId app) {
  if (AppVisit* seen = find_recent(user.apps, &AppVisit::app, app)) {
    return *seen;
  }
  AppTally::Counter& counter = app_tally_.apps[app];
  counter.distinct_users += 1;
  return user.apps.emplace_back(AppVisit{app, -1, &counter});
}

void ShardStats::on_proxy(const trace::ProxyRecord& record,
                          std::uint64_t seq) {
  ++consumed_;
  const bool wearable = devices_->is_wearable(record.tac);
  UserSlot* user = nullptr;
  if (!sketch_mode_) {
    user = &users_[record.user_id];
    adoption_.on_proxy(user->adoption, wearable);
    activity_.on_proxy(user->activity, record, seq, wearable);
  }

  if (!wearable) return;
  if (!host_classes_.has_value()) {
    util::require(hosts_->pool != nullptr,
                  "live: proxy record pushed before a host pool was bound");
    host_classes_.emplace(*signatures_, *hosts_->pool);
  }
  const core::EndpointClass cls = host_classes_->classify(record.host_id);
  app_tally_.class_txns[static_cast<std::size_t>(cls.cls)] += 1;
  if (sketch_mode_) {
    sketch_.transacting_users.add(record.user_id);
    // Detailed window only: ActivityResult::txn_size_bytes covers exactly
    // this population, so the sketch gate compares like with like.
    if (record.timestamp >= detailed_start_) {
      sketch_.txn_sizes.add(static_cast<double>(record.bytes_total()));
    }
  }
  if (cls.cls != appdb::TransactionClass::kApplication) return;

  if (sketch_mode_) {
    // Bounded tracking only: the app heavy-hitter table replaces the
    // per-(user, app) distinct-user and sessionizer state.
    AppTally::Counter& counter = app_tally_.apps[cls.app];
    counter.transactions += 1;
    counter.bytes += record.bytes_total();
    sketch_.apps.add(signatures_->app_name(cls.app));
    return;
  }
  AppVisit& visit = visit_app(*user, cls.app);
  AppTally::Counter& counter = *visit.counter;
  counter.transactions += 1;
  counter.bytes += record.bytes_total();
  // Incremental sessionization: a transaction more than `usage_gap_s_`
  // after the same (user, app)'s previous one opens a new usage.
  if (visit.last_txn < 0 || record.timestamp - visit.last_txn > usage_gap_s_) {
    counter.usages += 1;
  }
  visit.last_txn = record.timestamp;
}

void ShardStats::on_mme(const trace::MmeRecord& record) {
  ++consumed_;
  const bool wearable = devices_->is_wearable(record.tac);
  SectorTally::Counter* sector = nullptr;
  if (sketch_mode_) {
    // No distinct-user counts: they would need per-user state.
    sector = &sector_tally_.sectors[record.sector_id];
    if (wearable) sketch_.registered_users.add(record.user_id);
  } else {
    UserSlot& user = users_[record.user_id];
    adoption_.on_mme(user.adoption, record, wearable);
    SectorVisit& visit = visit_sector(user, record.sector_id);
    sector = visit.counter;
    if (wearable && !visit.wearable) {
      visit.wearable = true;
      sector->wearable_users += 1;
    }
  }
  sector->events += 1;
  if (record.event == trace::MmeEvent::kAttach) sector->attaches += 1;
  if (record.event == trace::MmeEvent::kHandover) sector->handovers += 1;
  if (wearable) sector->wearable_events += 1;
}

TallyView ShardStats::view() const {
  return TallyView{consumed_, &adoption_.tally(), &activity_.tally(),
                   &app_tally_, &sector_tally_, &sketch_};
}

}  // namespace wearscope::live
