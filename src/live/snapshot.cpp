#include "live/snapshot.h"

#include <algorithm>
#include <optional>

namespace wearscope::live {

LiveSnapshot assemble(std::uint64_t epoch, std::span<const TallyView> parts,
                      const core::AppSignatureTable& signatures,
                      bool capture_tallies) {
  LiveSnapshot snap;
  snap.epoch = epoch;
  core::AdoptionTally adoption;
  std::vector<const core::ActivityTally*> activity;
  AppTally apps;
  SectorTally sectors;
  std::optional<SketchTally> sketch;  // Exact mode builds none.
  activity.reserve(parts.size());
  for (const TallyView& part : parts) {
    snap.records += part.records;
    adoption.merge(*part.adoption);
    activity.push_back(part.activity);
    apps.merge(*part.apps);
    sectors.merge(*part.sectors);
    if (part.sketch->enabled) {
      if (!sketch.has_value()) sketch.emplace();
      sketch->merge(*part.sketch);
    }
  }
  snap.adoption = adoption.finalize();
  snap.activity = core::finalize_activity(activity);
  snap.class_txns = apps.class_txns;
  if (sketch.has_value()) {
    snap.sketch.enabled = true;
    snap.sketch.registered_users = sketch->registered_users.estimate();
    snap.sketch.transacting_users = sketch->transacting_users.estimate();
    snap.sketch.txn_size_p50 = sketch->txn_sizes.quantile(0.50);
    snap.sketch.txn_size_p95 = sketch->txn_sizes.quantile(0.95);
    snap.sketch.txn_size_p99 = sketch->txn_sizes.quantile(0.99);
    snap.sketch.top_apps = sketch->apps.top(10);
    snap.sketch.memory_bytes = sketch->memory_bytes();
  }

  snap.apps.reserve(apps.apps.size());
  for (const auto& [app, counter] : apps.apps) {
    LiveSnapshot::AppRow row;
    row.app = app;
    row.name = std::string(signatures.app_name(app));
    row.counter = counter;
    snap.apps.push_back(std::move(row));
  }
  std::sort(snap.apps.begin(), snap.apps.end(),
            [](const LiveSnapshot::AppRow& a, const LiveSnapshot::AppRow& b) {
              return a.counter.transactions != b.counter.transactions
                         ? a.counter.transactions > b.counter.transactions
                         : a.app < b.app;
            });

  snap.sectors.reserve(sectors.sectors.size());
  for (const auto& [sector, counter] : sectors.sectors) {
    snap.sectors.push_back(LiveSnapshot::SectorRow{sector, counter});
  }
  std::sort(snap.sectors.begin(), snap.sectors.end(),
            [](const LiveSnapshot::SectorRow& a,
               const LiveSnapshot::SectorRow& b) {
              return a.counter.events != b.counter.events
                         ? a.counter.events > b.counter.events
                         : a.sector < b.sector;
            });

  if (capture_tallies) {
    auto tallies = std::make_shared<LiveSnapshot::TallySet>();
    tallies->adoption = std::move(adoption);
    for (const core::ActivityTally* part : activity) {
      tallies->activity.merge(*part);  // copies: the parts stay in place
    }
    tallies->apps = std::move(apps);
    tallies->sectors = std::move(sectors);
    if (sketch.has_value()) tallies->sketch = std::move(*sketch);
    snap.tallies = std::move(tallies);
  }
  return snap;
}

}  // namespace wearscope::live
