#include "live/shard_stats.h"

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

void ShardStats::on_proxy(const trace::ProxyRecord& record,
                          std::uint64_t seq) {
  ++consumed_;
  if (!sketch_mode_) {
    adoption_.on_proxy(record);
    activity_.on_proxy(record, seq);
  }

  if (!devices_->is_wearable(record.tac)) return;
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

  AppTally::Counter& counter = app_tally_.apps[cls.app];
  counter.transactions += 1;
  counter.bytes += record.bytes_total();
  if (sketch_mode_) {
    // Bounded tracking only: the app heavy-hitter table replaces the
    // per-app user sets and the per-(user, app) sessionizer state.
    sketch_.apps.add(signatures_->app_name(cls.app));
    return;
  }
  app_users_[cls.app].insert(record.user_id);

  // Incremental sessionization: a transaction more than `usage_gap_s_`
  // after the same (user, app)'s previous one opens a new usage.
  util::SimTime& last = last_txn_[record.user_id]
                            .try_emplace(cls.app, util::SimTime{-1})
                            .first->second;
  if (last < 0 || record.timestamp - last > usage_gap_s_) {
    counter.usages += 1;
  }
  last = record.timestamp;
}

void ShardStats::on_mme(const trace::MmeRecord& record) {
  ++consumed_;
  if (!sketch_mode_) adoption_.on_mme(record);

  SectorTally::Counter& sector = sector_tally_.sectors[record.sector_id];
  sector.events += 1;
  if (record.event == trace::MmeEvent::kAttach) sector.attaches += 1;
  if (record.event == trace::MmeEvent::kHandover) sector.handovers += 1;
  if (devices_->is_wearable(record.tac)) {
    sector.wearable_events += 1;
    if (sketch_mode_) sketch_.registered_users.add(record.user_id);
  }
  if (sketch_mode_) return;  // distinct-user sets are O(users)
  sector_users_[record.sector_id].insert(record.user_id);
  if (devices_->is_wearable(record.tac)) {
    sector_wearable_users_[record.sector_id].insert(record.user_id);
  }
}

ShardSnapshot ShardStats::snapshot(std::size_t shard) const {
  ShardSnapshot snap;
  snap.shard = shard;
  snap.records = consumed_;
  snap.adoption = adoption_.tally();
  snap.activity = activity_.tally();
  snap.apps = app_tally_;
  // Keyed writes into the (ordered) tally maps: each key is visited once,
  // so hash-map iteration order cannot reach the emitted value.
  // wearscope-lint: allow(unordered-flow)
  for (const auto& [app, users] : app_users_) {
    snap.apps.apps[app].distinct_users = users.size();
  }
  snap.sectors = sector_tally_;
  // Same keyed-write shape as above.  wearscope-lint: allow(unordered-flow)
  for (const auto& [sector, users] : sector_users_) {
    snap.sectors.sectors[sector].distinct_users = users.size();
  }
  // Same keyed-write shape as above.  wearscope-lint: allow(unordered-flow)
  for (const auto& [sector, users] : sector_wearable_users_) {
    snap.sectors.sectors[sector].wearable_users = users.size();
  }
  snap.sketch = sketch_;
  return snap;
}

}  // namespace wearscope::live
