// Streaming/batch equivalence and snapshot-consistency tests for the live
// ingest engine: a capture replayed through LiveEngine must reproduce the
// batch pipeline's results, and the answer must not depend on the shard
// count.
#include "live/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "appdb/app_catalog.h"
#include "core/pipeline.h"
#include "core/streaming_activity.h"
#include "live/replayer.h"
#include "live/router.h"
#include "serve/reference.h"
#include "simnet/simulator.h"

namespace wearscope::live {
namespace {

const simnet::SimResult& capture() {
  static const simnet::SimResult sim = [] {
    simnet::SimConfig cfg = simnet::SimConfig::small();
    cfg.seed = 21;
    return simnet::Simulator(cfg).run();
  }();
  return sim;
}

LiveOptions options_for(const simnet::SimResult& sim, std::size_t shards) {
  LiveOptions opt;
  opt.shards = shards;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.detailed_start_day;
  opt.long_tail_apps = sim.config.long_tail_apps;
  return opt;
}

/// Replays the shared capture at max speed and returns the final snapshot.
LiveSnapshot run_live(std::size_t shards,
                      util::SimTime snapshot_every = 0,
                      std::vector<LiveSnapshot>* periodic = nullptr) {
  const simnet::SimResult& sim = capture();
  LiveEngine engine(sim.store.devices, options_for(sim, shards));
  ReplayOptions ropt;
  ropt.snapshot_every_s = snapshot_every;
  const FeedReplayer replayer(sim.store, ropt);
  const ReplayReport report = replayer.replay(engine);
  if (periodic != nullptr) *periodic = report.snapshots;
  EXPECT_EQ(report.records_pushed,
            sim.store.proxy.size() + sim.store.mme.size());
  return engine.stop();
}

void expect_same_ecdf(const util::Ecdf& a, const util::Ecdf& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  const std::vector<double>& sa = a.sorted();
  const std::vector<double>& sb = b.sorted();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_DOUBLE_EQ(sa[i], sb[i]) << what << " sample " << i;
  }
}

void expect_same_adoption(const core::AdoptionResult& a,
                          const core::AdoptionResult& b) {
  EXPECT_EQ(a.ever_registered, b.ever_registered);
  EXPECT_EQ(a.ever_transacted, b.ever_transacted);
  EXPECT_DOUBLE_EQ(a.ever_transacting_fraction, b.ever_transacting_fraction);
  EXPECT_DOUBLE_EQ(a.total_growth, b.total_growth);
  EXPECT_DOUBLE_EQ(a.monthly_growth, b.monthly_growth);
  EXPECT_DOUBLE_EQ(a.still_active_share, b.still_active_share);
  EXPECT_DOUBLE_EQ(a.gone_share, b.gone_share);
  EXPECT_DOUBLE_EQ(a.new_share, b.new_share);
  EXPECT_DOUBLE_EQ(a.churned_of_initial, b.churned_of_initial);
  ASSERT_EQ(a.daily_registered_norm.size(), b.daily_registered_norm.size());
  for (std::size_t d = 0; d < a.daily_registered_norm.size(); ++d) {
    EXPECT_DOUBLE_EQ(a.daily_registered_norm[d], b.daily_registered_norm[d])
        << "day " << d;
  }
}

TEST(LiveEngine, SingleShardMatchesBatchPipeline) {
  const simnet::SimResult& sim = capture();
  core::AnalysisOptions opt;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.detailed_start_day;
  opt.long_tail_apps = sim.config.long_tail_apps;
  const core::Pipeline pipeline(sim.store, opt);
  const core::StudyReport batch = pipeline.run();

  const LiveSnapshot live = run_live(1);

  // Adoption: bit-identical, field by field.
  expect_same_adoption(live.adoption, batch.adoption);

  // Activity: every ECDF-derived statistic is exact (Ecdf sorts its sample
  // before deriving anything, which erases accumulation-order effects).
  expect_same_ecdf(live.activity.active_days_per_week,
                   batch.activity.active_days_per_week, "days/week");
  expect_same_ecdf(live.activity.active_hours_per_day,
                   batch.activity.active_hours_per_day, "hours/day");
  expect_same_ecdf(live.activity.txn_size_bytes, batch.activity.txn_size_bytes,
                   "txn bytes");
  expect_same_ecdf(live.activity.hourly_txns_per_user,
                   batch.activity.hourly_txns_per_user, "hourly txns");
  expect_same_ecdf(live.activity.hourly_bytes_per_user,
                   batch.activity.hourly_bytes_per_user, "hourly bytes");
  EXPECT_DOUBLE_EQ(live.activity.mean_active_days,
                   batch.activity.mean_active_days);
  EXPECT_DOUBLE_EQ(live.activity.mean_active_hours,
                   batch.activity.mean_active_hours);
  EXPECT_DOUBLE_EQ(live.activity.frac_over_10h, batch.activity.frac_over_10h);
  EXPECT_DOUBLE_EQ(live.activity.frac_under_5h, batch.activity.frac_under_5h);
  EXPECT_DOUBLE_EQ(live.activity.mean_txn_bytes, batch.activity.mean_txn_bytes);
  EXPECT_DOUBLE_EQ(live.activity.median_txn_bytes,
                   batch.activity.median_txn_bytes);
  EXPECT_DOUBLE_EQ(live.activity.frac_txn_under_10kb,
                   batch.activity.frac_txn_under_10kb);
  // Even the order-sensitive Fig. 3d scalars match bitwise: the stream
  // sequence stamped by the router lets finalize() replay the batch's
  // user-appearance order.  See core/streaming_activity.h.
  EXPECT_DOUBLE_EQ(live.activity.correlation, batch.activity.correlation);
  EXPECT_DOUBLE_EQ(live.activity.binned_trend_corr,
                   batch.activity.binned_trend_corr);
}

TEST(LiveEngine, ShardCountDoesNotChangeTheAnswer) {
  const LiveSnapshot one = run_live(1);
  const LiveSnapshot four = run_live(4);

  EXPECT_EQ(one.records, four.records);
  expect_same_adoption(one.adoption, four.adoption);
  expect_same_ecdf(one.activity.active_days_per_week,
                   four.activity.active_days_per_week, "days/week");
  expect_same_ecdf(one.activity.txn_size_bytes, four.activity.txn_size_bytes,
                   "txn bytes");
  expect_same_ecdf(one.activity.hourly_txns_per_user,
                   four.activity.hourly_txns_per_user, "hourly txns");
  // Finalize iterates users by their stream-wide first appearance (merged
  // from the shards), so the order-sensitive correlations are bitwise
  // stable across shard counts too.
  EXPECT_DOUBLE_EQ(one.activity.correlation, four.activity.correlation);
  EXPECT_DOUBLE_EQ(one.activity.binned_trend_corr,
                   four.activity.binned_trend_corr);

  // App table: same rows, same order, same counters.
  ASSERT_EQ(one.apps.size(), four.apps.size());
  for (std::size_t i = 0; i < one.apps.size(); ++i) {
    EXPECT_EQ(one.apps[i].app, four.apps[i].app) << "row " << i;
    EXPECT_EQ(one.apps[i].name, four.apps[i].name) << "row " << i;
    EXPECT_EQ(one.apps[i].counter.transactions,
              four.apps[i].counter.transactions) << "row " << i;
    EXPECT_EQ(one.apps[i].counter.bytes, four.apps[i].counter.bytes)
        << "row " << i;
    EXPECT_EQ(one.apps[i].counter.usages, four.apps[i].counter.usages)
        << "row " << i;
    EXPECT_EQ(one.apps[i].counter.distinct_users,
              four.apps[i].counter.distinct_users) << "row " << i;
  }
  for (std::size_t c = 0; c < one.class_txns.size(); ++c) {
    EXPECT_EQ(one.class_txns[c], four.class_txns[c]) << "class " << c;
  }

  // Sector table: same rows, same order, same counters.
  ASSERT_EQ(one.sectors.size(), four.sectors.size());
  for (std::size_t i = 0; i < one.sectors.size(); ++i) {
    const SectorTally::Counter& a = one.sectors[i].counter;
    const SectorTally::Counter& b = four.sectors[i].counter;
    EXPECT_EQ(one.sectors[i].sector, four.sectors[i].sector) << "row " << i;
    EXPECT_EQ(a.events, b.events) << "row " << i;
    EXPECT_EQ(a.attaches, b.attaches) << "row " << i;
    EXPECT_EQ(a.handovers, b.handovers) << "row " << i;
    EXPECT_EQ(a.wearable_events, b.wearable_events) << "row " << i;
    EXPECT_EQ(a.distinct_users, b.distinct_users) << "row " << i;
    EXPECT_EQ(a.wearable_users, b.wearable_users) << "row " << i;
  }
}

/// App and sector counters recomputed from the first `records` events of
/// the capture with ordered containers, sharing nothing with the shard
/// code but the host classifier's rules.
struct NaiveTallies {
  struct App {
    std::uint64_t transactions = 0;
    std::uint64_t bytes = 0;
    std::uint64_t usages = 0;
    std::set<trace::UserId> users;
  };
  struct Sector {
    std::uint64_t events = 0;
    std::uint64_t attaches = 0;
    std::uint64_t handovers = 0;
    std::uint64_t wearable_events = 0;
    std::set<trace::UserId> users;
    std::set<trace::UserId> wearable_users;
  };
  std::map<appdb::AppId, App> apps;
  std::map<trace::SectorId, Sector> sectors;
};

NaiveTallies naive_tallies(std::uint64_t records, const LiveOptions& opt) {
  const trace::TraceStore prefix =
      serve::prefix_store(capture().store, records);
  const appdb::AppCatalog catalog(opt.long_tail_apps);
  const core::AppSignatureTable signatures(catalog, opt.signature_coverage);
  const core::DeviceClassifier devices(prefix.devices);
  NaiveTallies out;
  std::map<std::pair<trace::UserId, appdb::AppId>, util::SimTime> last_txn;
  for (const trace::ProxyRecord& r : prefix.proxy) {
    if (!devices.is_wearable(r.tac)) continue;
    const core::EndpointClass cls =
        signatures.classify_host(prefix.hosts[r.host_id]);
    if (cls.cls != appdb::TransactionClass::kApplication) continue;
    NaiveTallies::App& app = out.apps[cls.app];
    app.transactions += 1;
    app.bytes += r.bytes_total();
    app.users.insert(r.user_id);
    const auto [it, first] =
        last_txn.try_emplace({r.user_id, cls.app}, r.timestamp);
    if (first || r.timestamp - it->second > opt.usage_gap_s) app.usages += 1;
    it->second = r.timestamp;
  }
  for (const trace::MmeRecord& r : prefix.mme) {
    NaiveTallies::Sector& sector = out.sectors[r.sector_id];
    sector.events += 1;
    if (r.event == trace::MmeEvent::kAttach) sector.attaches += 1;
    if (r.event == trace::MmeEvent::kHandover) sector.handovers += 1;
    sector.users.insert(r.user_id);
    if (devices.is_wearable(r.tac)) {
      sector.wearable_events += 1;
      sector.wearable_users.insert(r.user_id);
    }
  }
  return out;
}

void expect_matches_oracle(const LiveSnapshot& snap, const NaiveTallies& want,
                           std::size_t shards) {
  ASSERT_EQ(snap.apps.size(), want.apps.size()) << shards << " shards";
  for (const LiveSnapshot::AppRow& row : snap.apps) {
    const auto it = want.apps.find(row.app);
    ASSERT_NE(it, want.apps.end()) << shards << " shards, app " << row.app;
    const NaiveTallies::App& app = it->second;
    EXPECT_EQ(row.counter.transactions, app.transactions)
        << shards << " shards, app " << row.app;
    EXPECT_EQ(row.counter.bytes, app.bytes)
        << shards << " shards, app " << row.app;
    EXPECT_EQ(row.counter.usages, app.usages)
        << shards << " shards, app " << row.app;
    EXPECT_EQ(row.counter.distinct_users, app.users.size())
        << shards << " shards, app " << row.app;
  }
  ASSERT_EQ(snap.sectors.size(), want.sectors.size()) << shards << " shards";
  for (const LiveSnapshot::SectorRow& row : snap.sectors) {
    const auto it = want.sectors.find(row.sector);
    ASSERT_NE(it, want.sectors.end())
        << shards << " shards, sector " << row.sector;
    const NaiveTallies::Sector& sector = it->second;
    const SectorTally::Counter& got = row.counter;
    EXPECT_EQ(got.events, sector.events)
        << shards << " shards, sector " << row.sector;
    EXPECT_EQ(got.attaches, sector.attaches)
        << shards << " shards, sector " << row.sector;
    EXPECT_EQ(got.handovers, sector.handovers)
        << shards << " shards, sector " << row.sector;
    EXPECT_EQ(got.wearable_events, sector.wearable_events)
        << shards << " shards, sector " << row.sector;
    EXPECT_EQ(got.distinct_users, sector.users.size())
        << shards << " shards, sector " << row.sector;
    EXPECT_EQ(got.wearable_users, sector.wearable_users.size())
        << shards << " shards, sector " << row.sector;
  }
}

TEST(LiveEngine, AppAndSectorTalliesMatchANaiveOracle) {
  const simnet::SimResult& sim = capture();
  const LiveOptions opt = options_for(sim, 1);
  // Keyed by the cut: every shard count takes the same barrier cuts.
  std::map<std::uint64_t, NaiveTallies> oracles;
  const auto oracle = [&](std::uint64_t records) -> const NaiveTallies& {
    auto it = oracles.find(records);
    if (it == oracles.end()) {
      it = oracles.emplace(records, naive_tallies(records, opt)).first;
    }
    return it->second;
  };
  for (const std::size_t shards : {1u, 2u, 3u, 4u, 8u}) {
    std::vector<LiveSnapshot> periodic;
    const LiveSnapshot final_snap =
        run_live(shards, 7 * util::kSecondsPerDay, &periodic);
    ASSERT_GE(periodic.size(), 3u);
    const LiveSnapshot& mid = periodic[periodic.size() / 2];
    ASSERT_GT(mid.records, 0u);
    ASSERT_LT(mid.records, final_snap.records);
    expect_matches_oracle(mid, oracle(mid.records), shards);
    expect_matches_oracle(final_snap, oracle(final_snap.records), shards);
  }
  EXPECT_EQ(oracles.size(), 2u);
}

core::ActivityTally tally_with_sizes(trace::UserId user,
                                     std::vector<double> sizes) {
  core::ActivityTally t;
  t.observation_days = 28;
  t.detailed_start_day = 14;
  t.first_seen[user] = user;
  t.txn_sizes = std::move(sizes);
  return t;
}

TEST(LiveEngine, ActivityMergeOfSortedRunsEqualsSortedConcatenation) {
  std::mt19937_64 rng(5);
  const auto draw = [&rng](std::size_t n) {
    std::vector<double> v(n);
    for (double& x : v) x = static_cast<double>(rng() % 900);  // duplicates
    v.push_back(0.0);
    return v;
  };
  std::vector<double> a = draw(700);
  std::vector<double> b = draw(300);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<double> want = a;
  want.insert(want.end(), b.begin(), b.end());
  std::sort(want.begin(), want.end());

  core::ActivityTally merged = tally_with_sizes(1, a);
  merged.merge(tally_with_sizes(2, b));
  EXPECT_EQ(merged.txn_sizes, want);
  // Merging into an empty tally adopts the other side as is.
  core::ActivityTally from_empty;
  from_empty.merge(tally_with_sizes(1, a));
  from_empty.merge(tally_with_sizes(2, b));
  EXPECT_EQ(from_empty.txn_sizes, want);
}

TEST(LiveEngine, ActivityMergeWithAnUnsortedSideConcatenates) {
  const std::vector<double> sorted = {0.0, 1.0, 1.0, 7.0};
  const std::vector<double> unsorted = {5.0, 0.0, 5.0, 2.0};
  std::vector<double> want_ecdf = sorted;
  want_ecdf.insert(want_ecdf.end(), unsorted.begin(), unsorted.end());
  std::sort(want_ecdf.begin(), want_ecdf.end());
  for (const bool unsorted_first : {false, true}) {
    const std::vector<double>& first = unsorted_first ? unsorted : sorted;
    const std::vector<double>& second = unsorted_first ? sorted : unsorted;
    core::ActivityTally merged = tally_with_sizes(1, first);
    merged.merge(tally_with_sizes(2, second));
    std::vector<double> concat = first;
    concat.insert(concat.end(), second.begin(), second.end());
    EXPECT_EQ(merged.txn_sizes, concat) << "unsorted first: " << unsorted_first;
    // finalize() sorts what the merge left unsorted.
    EXPECT_EQ(merged.finalize().txn_size_bytes.sorted(), want_ecdf);
  }
}

/// Bit pattern of a double: the comparisons below are bitwise.
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_bitwise_activity(const core::ActivityResult& a,
                             const core::ActivityResult& b,
                             const std::string& what) {
  EXPECT_EQ(a.active_days_per_week.sorted(), b.active_days_per_week.sorted())
      << what;
  EXPECT_EQ(a.active_hours_per_day.sorted(), b.active_hours_per_day.sorted())
      << what;
  EXPECT_EQ(a.txn_size_bytes.sorted(), b.txn_size_bytes.sorted()) << what;
  EXPECT_EQ(a.hourly_txns_per_user.sorted(), b.hourly_txns_per_user.sorted())
      << what;
  EXPECT_EQ(a.hourly_bytes_per_user.sorted(),
            b.hourly_bytes_per_user.sorted())
      << what;
  EXPECT_EQ(bits(a.mean_active_days), bits(b.mean_active_days)) << what;
  EXPECT_EQ(bits(a.mean_active_hours), bits(b.mean_active_hours)) << what;
  EXPECT_EQ(bits(a.frac_over_10h), bits(b.frac_over_10h)) << what;
  EXPECT_EQ(bits(a.frac_under_5h), bits(b.frac_under_5h)) << what;
  EXPECT_EQ(bits(a.mean_txn_bytes), bits(b.mean_txn_bytes)) << what;
  EXPECT_EQ(bits(a.median_txn_bytes), bits(b.median_txn_bytes)) << what;
  EXPECT_EQ(bits(a.frac_txn_under_10kb), bits(b.frac_txn_under_10kb))
      << what;
  EXPECT_EQ(a.txns_vs_hours.x_centers, b.txns_vs_hours.x_centers) << what;
  EXPECT_EQ(a.txns_vs_hours.y_means, b.txns_vs_hours.y_means) << what;
  EXPECT_EQ(a.txns_vs_hours.n, b.txns_vs_hours.n) << what;
  EXPECT_EQ(bits(a.correlation), bits(b.correlation)) << what;
  EXPECT_EQ(bits(a.binned_trend_corr), bits(b.binned_trend_corr)) << what;
}

TEST(LiveEngine, ActivityFinalizeOverPartsEqualsMergedFinalize) {
  // Split the capture's proxy log by user into 1-4 streaming instances,
  // exactly as shards would, and finalize the parts in place.
  const simnet::SimResult& sim = capture();
  const core::DeviceClassifier devices(sim.store.devices);
  std::optional<core::ActivityResult> one_part;
  for (const std::size_t k : {1u, 2u, 3u, 4u}) {
    std::vector<core::StreamingActivity> streams;
    for (std::size_t i = 0; i < k; ++i) {
      streams.emplace_back(devices, sim.observation_days,
                           sim.detailed_start_day);
    }
    std::uint64_t seq = 0;
    for (const trace::ProxyRecord& r : sim.store.proxy) {
      streams[shard_of(r.user_id, k)].on_proxy(r, seq++);
    }
    std::vector<core::ActivityTally> parts;
    for (core::StreamingActivity& stream : streams) {
      stream.sort_new_sizes();
      parts.push_back(stream.tally());
    }
    // With one part unsorted (a partial from before the sorted samples),
    // the in-place finalize concatenates where the merge did.
    for (const bool unsorted : {false, true}) {
      const std::string what = std::to_string(k) + " part(s), " +
                               (unsorted ? "one unsorted" : "all sorted");
      if (unsorted) {
        std::vector<double>& sizes = parts[k / 2].txn_sizes;
        ASSERT_GT(sizes.size(), 1u) << what;
        std::mt19937_64 rng(k);
        std::shuffle(sizes.begin(), sizes.end(), rng);
        ASSERT_FALSE(std::is_sorted(sizes.begin(), sizes.end())) << what;
      }
      std::vector<const core::ActivityTally*> views;
      core::ActivityTally merged;
      for (const core::ActivityTally& part : parts) {
        views.push_back(&part);
        merged.merge(part);
      }
      const core::ActivityResult in_place = core::finalize_activity(views);
      expect_bitwise_activity(in_place, merged.finalize(), what);
      if (!one_part.has_value()) one_part = in_place;
      expect_bitwise_activity(in_place, *one_part, what + " vs 1 part");
    }
  }
}

void expect_bitwise_snapshot(const LiveSnapshot& a, const LiveSnapshot& b,
                             const std::string& what) {
  EXPECT_EQ(a.records, b.records) << what;
  const core::AdoptionResult& x = a.adoption;
  const core::AdoptionResult& y = b.adoption;
  EXPECT_EQ(x.daily_registered_norm, y.daily_registered_norm) << what;
  EXPECT_EQ(bits(x.total_growth), bits(y.total_growth)) << what;
  EXPECT_EQ(bits(x.monthly_growth), bits(y.monthly_growth)) << what;
  EXPECT_EQ(bits(x.ever_transacting_fraction),
            bits(y.ever_transacting_fraction))
      << what;
  EXPECT_EQ(bits(x.still_active_share), bits(y.still_active_share)) << what;
  EXPECT_EQ(bits(x.gone_share), bits(y.gone_share)) << what;
  EXPECT_EQ(bits(x.new_share), bits(y.new_share)) << what;
  EXPECT_EQ(bits(x.churned_of_initial), bits(y.churned_of_initial)) << what;
  EXPECT_EQ(x.ever_registered, y.ever_registered) << what;
  EXPECT_EQ(x.ever_transacted, y.ever_transacted) << what;
  expect_bitwise_activity(a.activity, b.activity, what);
  ASSERT_EQ(a.apps.size(), b.apps.size()) << what;
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_EQ(a.apps[i].app, b.apps[i].app) << what << " app row " << i;
    EXPECT_EQ(a.apps[i].name, b.apps[i].name) << what << " app row " << i;
    EXPECT_TRUE(a.apps[i].counter == b.apps[i].counter)
        << what << " app row " << i;
  }
  ASSERT_EQ(a.sectors.size(), b.sectors.size()) << what;
  for (std::size_t i = 0; i < a.sectors.size(); ++i) {
    EXPECT_EQ(a.sectors[i].sector, b.sectors[i].sector)
        << what << " sector row " << i;
    EXPECT_TRUE(a.sectors[i].counter == b.sectors[i].counter)
        << what << " sector row " << i;
  }
  EXPECT_EQ(a.class_txns, b.class_txns) << what;
}

/// Pushes the whole capture in feed order, taking a snapshot before every
/// `every`-th record (0 = none), and returns the final snapshot.
LiveSnapshot run_with_epochs(std::size_t shards, std::uint64_t every) {
  const simnet::SimResult& sim = capture();
  LiveEngine engine(sim.store.devices, options_for(sim, shards));
  engine.bind_hosts(sim.store.hosts);
  walk_feed(sim.store, [&](const FeedEvent& event) {
    if (every != 0 && event.seq != 0 && event.seq % every == 0) {
      EXPECT_EQ(engine.snapshot().records, event.seq);
    }
    EXPECT_TRUE(event.mme != nullptr ? engine.push(*event.mme)
                                     : engine.push(*event.proxy));
  });
  return engine.stop();
}

TEST(LiveEngine, FinalSnapshotDoesNotDependOnEpochsTaken) {
  // Assembly reads the shards in place between two events: an assembly
  // that changed shard state, or read it before a shard arrived, would
  // make the final answer depend on the epochs taken on the way.
  const LiveSnapshot baseline = run_with_epochs(1, 0);
  EXPECT_EQ(baseline.records,
            capture().store.proxy.size() + capture().store.mme.size());
  for (const std::size_t shards : {1u, 2u, 3u, 4u, 8u}) {
    const std::string label = std::to_string(shards) + " shard(s)";
    expect_bitwise_snapshot(run_with_epochs(shards, 0), baseline,
                            label + ", no epochs");
    expect_bitwise_snapshot(run_with_epochs(shards, 1000), baseline,
                            label + ", an epoch every 1000 records");
  }
}

TEST(LiveEngine, SketchModeKeepsNoPerUserSlots) {
  const simnet::SimResult& sim = capture();
  const LiveOptions opt = options_for(sim, 1);
  const appdb::AppCatalog catalog(opt.long_tail_apps);
  const core::DeviceClassifier devices(sim.store.devices);
  const core::AppSignatureTable signatures(catalog, opt.signature_coverage);
  const HostBinding hosts{&sim.store.hosts};
  for (const bool sketch : {false, true}) {
    ShardStats stats(devices, signatures, hosts, opt.observation_days,
                     opt.detailed_start_day, opt.usage_gap_s, sketch);
    for (const trace::MmeRecord& r : sim.store.mme) stats.on_mme(r);
    std::uint64_t seq = 0;
    for (const trace::ProxyRecord& r : sim.store.proxy) {
      stats.on_proxy(r, seq++);
    }
    const TallyView view = stats.view();
    ASSERT_FALSE(view.apps->apps.empty());
    ASSERT_FALSE(view.sectors->sectors.empty());
    EXPECT_EQ(view.sketch->enabled, sketch);
    if (!sketch) {
      EXPECT_GT(stats.tracked_users(), 0u);
      continue;
    }
    EXPECT_EQ(stats.tracked_users(), 0u);
    EXPECT_TRUE(view.activity->first_seen.empty());
    EXPECT_TRUE(view.activity->txn_sizes.empty());
    EXPECT_EQ(view.adoption->ever_registered, 0u);
    for (const auto& [app, counter] : view.apps->apps) {
      EXPECT_GT(counter.transactions, 0u) << "app " << app;
      EXPECT_EQ(counter.distinct_users, 0u) << "app " << app;
      EXPECT_EQ(counter.usages, 0u) << "app " << app;
    }
    for (const auto& [sector, counter] : view.sectors->sectors) {
      EXPECT_GT(counter.events, 0u) << "sector " << sector;
      EXPECT_EQ(counter.distinct_users, 0u) << "sector " << sector;
      EXPECT_EQ(counter.wearable_users, 0u) << "sector " << sector;
    }
  }
}

TEST(LiveEngine, PeriodicSnapshotsAreOrderedAndMonotone) {
  std::vector<LiveSnapshot> periodic;
  const LiveSnapshot final_snap =
      run_live(2, util::kSecondsPerDay, &periodic);

  ASSERT_FALSE(periodic.empty());
  std::uint64_t last_epoch = 0;
  std::uint64_t last_records = 0;
  bool first = true;
  for (const LiveSnapshot& snap : periodic) {
    if (!first) {
      EXPECT_GT(snap.epoch, last_epoch);
      EXPECT_GE(snap.records, last_records);
    }
    EXPECT_LE(snap.records, final_snap.records);
    last_epoch = snap.epoch;
    last_records = snap.records;
    first = false;
  }
  EXPECT_GT(final_snap.epoch, last_epoch);
  EXPECT_EQ(final_snap.records,
            capture().store.proxy.size() + capture().store.mme.size());
}

TEST(LiveEngine, StopIsIdempotentAndRefusesLatePushes) {
  const simnet::SimResult& sim = capture();
  LiveEngine engine(sim.store.devices, options_for(sim, 2));
  ASSERT_FALSE(sim.store.mme.empty());
  EXPECT_TRUE(engine.push(sim.store.mme.front()));

  const LiveSnapshot first = engine.stop();
  EXPECT_EQ(first.records, 1u);
  EXPECT_FALSE(engine.push(sim.store.mme.front()));
  const LiveSnapshot second = engine.stop();
  EXPECT_EQ(second.records, first.records);
  EXPECT_EQ(second.epoch, first.epoch);
}

TEST(LiveEngine, MidStreamSnapshotCoversExactPrefix) {
  const simnet::SimResult& sim = capture();
  LiveEngine engine(sim.store.devices, options_for(sim, 3));
  constexpr std::uint64_t kPrefix = 500;
  std::uint64_t pushed = 0;
  for (const trace::MmeRecord& r : sim.store.mme) {
    if (pushed == kPrefix) break;
    ASSERT_TRUE(engine.push(r));
    ++pushed;
  }
  const LiveSnapshot cut = engine.snapshot();
  EXPECT_EQ(cut.records, kPrefix);
  const LiveSnapshot final_snap = engine.stop();
  EXPECT_EQ(final_snap.records, kPrefix);
  EXPECT_GT(final_snap.epoch, cut.epoch);
}

TEST(LiveEngine, BarrierCommitsStagedRecords) {
  // Fewer records than one commit batch stay staged on the feed thread;
  // the snapshot barrier must commit them ahead of itself.
  const simnet::SimResult& sim = capture();
  LiveEngine engine(sim.store.devices, options_for(sim, 2));
  ASSERT_GE(sim.store.mme.size(), 3u);
  static_assert(3 < kEventBatch);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.push(sim.store.mme[i]));
  }
  const LiveSnapshot cut = engine.snapshot();
  EXPECT_EQ(cut.records, 3u);
  EXPECT_EQ(engine.stop().records, 3u);
}

TEST(LiveEngine, PacedReplayCommitsBeforeSleeping) {
  // A paced replay flushes before each sleep, so every record is in its
  // shard's ring by the time the next one's read starts — none waits for
  // a batch to fill.
  const simnet::SimResult& sim = capture();
  ASSERT_GE(sim.store.mme.size(), 20u);
  trace::TraceStore store;
  store.devices = sim.store.devices;
  for (std::size_t i = 0; i < 20; ++i) {
    trace::MmeRecord r = sim.store.mme[i];
    r.timestamp = 1000 + static_cast<util::SimTime>(i);  // 1 s apart
    store.mme.push_back(r);
  }
  store.sort_by_time();

  LiveEngine engine(store.devices, options_for(sim, 1));
  ReplayOptions ropt;
  ropt.speedup = 1000.0;
  std::uint64_t checked = 0;
  ropt.read_faults = [&](std::uint64_t seq) -> std::uint32_t {
    EXPECT_EQ(engine.backpressure().pushed, seq) << "record " << seq;
    ++checked;
    return 0;
  };
  const ReplayReport report = FeedReplayer(store, ropt).replay(engine);
  EXPECT_EQ(report.records_pushed, store.mme.size());
  EXPECT_EQ(checked, store.mme.size());
  EXPECT_EQ(engine.stop().records, store.mme.size());
}

TEST(LiveEngine, ShardOfIsStableAndCoversAllShards) {
  // The assignment must be deterministic (snapshots reproducible across
  // runs and platforms) and must actually use every shard.
  EXPECT_EQ(shard_of(42, 4), shard_of(42, 4));
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    std::set<std::size_t> seen;
    for (trace::UserId u = 0; u < 1000; ++u) {
      const std::size_t s = shard_of(u, shards);
      ASSERT_LT(s, shards);
      seen.insert(s);
    }
    EXPECT_EQ(seen.size(), shards) << "shards=" << shards;
  }
}

TEST(LiveEngine, BackpressureCountersSurfaceInSnapshots) {
  // A tiny ring forces the feed to stall; the final snapshot must report
  // those episodes.
  const simnet::SimResult& sim = capture();
  LiveOptions opt = options_for(sim, 1);
  opt.ring_capacity = 1;
  LiveEngine engine(sim.store.devices, opt);
  const FeedReplayer replayer(sim.store, ReplayOptions{});
  replayer.replay(engine);
  const LiveSnapshot snap = engine.stop();
  EXPECT_EQ(snap.backpressure.pushed, snap.records + engine.epochs_issued());
  EXPECT_EQ(snap.backpressure.pushed, snap.backpressure.popped);
  EXPECT_EQ(snap.backpressure.rejected, 0u);
}

}  // namespace
}  // namespace wearscope::live
