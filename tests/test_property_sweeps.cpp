// Parameterized property tests: structural invariants of the generator and
// headline statistics of the analysis must hold across random seeds and
// population scales, not just for the default seed.
#include <unordered_set>

#include <gtest/gtest.h>

#include "chaos/diff_runner.h"
#include "chaos/fault_plan.h"
#include "test_support.h"
#include "core/analysis_activity.h"
#include "core/analysis_adoption.h"
#include "core/analysis_comparison.h"
#include "core/context.h"
#include "fed/merge.h"
#include "live/engine.h"
#include "live/replayer.h"
#include "serve/query.h"
#include "simnet/simulator.h"

namespace wearscope {
namespace {

simnet::SimConfig sweep_config(std::uint64_t seed) {
  simnet::SimConfig cfg;
  cfg.seed = seed;
  cfg.wearable_users = 150;
  cfg.control_users = 450;
  cfg.through_device_users = 40;
  cfg.detailed_days = 14;
  cfg.cities = 5;
  cfg.sectors_per_city = 10;
  cfg.long_tail_apps = 40;
  return cfg;
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static const simnet::SimResult& result_for(std::uint64_t seed) {
    static std::map<std::uint64_t, simnet::SimResult> cache;
    auto it = cache.find(seed);
    if (it == cache.end()) {
      it = cache.emplace(seed, simnet::Simulator(sweep_config(seed)).run())
               .first;
    }
    return it->second;
  }
};

TEST_P(SeedSweep, StoreInvariants) {
  const simnet::SimResult& r = result_for(GetParam());
  EXPECT_TRUE(r.store.is_sorted());
  const trace::TraceSummary sum = r.store.summarize();
  EXPECT_GT(sum.proxy_records, 0u);
  EXPECT_GT(sum.mme_records, 0u);
  EXPECT_GT(sum.total_bytes, 0u);
  EXPECT_GE(sum.first_timestamp, 0);
  EXPECT_LT(sum.last_timestamp,
            util::day_start(r.observation_days));
}

TEST_P(SeedSweep, EveryProxyRecordWellFormed) {
  const simnet::SimResult& r = result_for(GetParam());
  for (const trace::ProxyRecord& rec : r.store.proxy) {
    ASSERT_GT(rec.bytes_total(), 0u);
    ASSERT_FALSE(r.store.hosts[rec.host_id].empty());
    ASSERT_NE(rec.tac, 0u);
    ASSERT_NE(rec.user_id, 0u);
    ASSERT_GT(rec.duration_ms, 0u);
    if (rec.protocol == trace::Protocol::kHttps) {
      ASSERT_TRUE(r.store.paths[rec.path_id].empty())
          << "SNI-only records carry no path";
    }
  }
}

TEST_P(SeedSweep, EveryDeviceTacResolvable) {
  const simnet::SimResult& r = result_for(GetParam());
  for (const trace::ProxyRecord& rec : r.store.proxy) {
    ASSERT_TRUE(r.store.find_device(rec.tac).has_value())
        << "proxy TAC missing from DeviceDB: " << rec.tac;
  }
  for (const trace::MmeRecord& rec : r.store.mme) {
    ASSERT_TRUE(r.store.find_device(rec.tac).has_value());
    ASSERT_TRUE(r.store.find_sector(rec.sector_id).has_value());
  }
}

TEST_P(SeedSweep, HeadlineStatisticsStable) {
  const simnet::SimResult& sim = result_for(GetParam());
  core::AnalysisOptions opt;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.detailed_start_day;
  opt.long_tail_apps = sim.config.long_tail_apps;
  const core::AnalysisContext ctx(sim.store, opt);

  // "Only ~34% of wearable users transmit data" holds for every seed
  // (generous band: 150 users per run).
  const core::AdoptionResult adoption = core::analyze_adoption(ctx);
  EXPECT_GT(adoption.ever_transacting_fraction, 0.22);
  EXPECT_LT(adoption.ever_transacting_fraction, 0.47);

  // Registered growth trends positive (tiny populations may jitter a hair
  // below zero) and stays below 25%.
  EXPECT_GT(adoption.total_growth, -0.04);
  EXPECT_LT(adoption.total_growth, 0.25);

  // Wearable transactions stay small: median under 8 KB for every seed.
  const core::ActivityResult activity = core::analyze_activity(ctx);
  EXPECT_LT(activity.median_txn_bytes, 8000.0);
  EXPECT_GT(activity.median_txn_bytes, 500.0);

  // Owners out-consume the control sample.  At this deliberately tiny
  // scale (150 owners) the +26% shift can drown in heavy-tail noise, so
  // the sweep only asserts loose sanity floors; the sharp calibration
  // gate runs at standard scale in test_pipeline_integration.
  const core::ComparisonResult cmp = core::analyze_comparison(ctx);
  EXPECT_GT(cmp.owner_daily_bytes_norm.quantile(0.5),
            0.8 * cmp.other_daily_bytes_norm.quantile(0.5));
  EXPECT_GT(cmp.data_ratio, 0.75);
  EXPECT_GT(cmp.txn_ratio, 1.0);
  // Wearable share of owner traffic is always orders of magnitude small.
  EXPECT_LT(cmp.median_wearable_share, 0.05);
}

TEST_P(SeedSweep, DeterminismPerSeed) {
  WEARSCOPE_SCOPED_SEED(GetParam());
  const simnet::SimResult a = simnet::Simulator(sweep_config(GetParam())).run();
  const simnet::SimResult b = simnet::Simulator(sweep_config(GetParam())).run();
  ASSERT_EQ(a.store.proxy.size(), b.store.proxy.size());
  // Spot-check a deterministic sample of records.
  for (std::size_t i = 0; i < a.store.proxy.size(); i += 97) {
    ASSERT_EQ(a.store.proxy[i], b.store.proxy[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(11, 23, 42, 77, 1234, 99991));

/// Scale sweep: invariants independent of population size.
class ScaleSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ScaleSweep, WearableUserCountsScale) {
  const std::uint64_t seed = testing::seed_or(7);
  WEARSCOPE_SCOPED_SEED(seed);
  simnet::SimConfig cfg = sweep_config(seed);
  cfg.wearable_users = GetParam();
  cfg.control_users = GetParam() * 2;
  cfg.through_device_users = GetParam() / 4 + 1;
  const simnet::SimResult r = simnet::Simulator(cfg).run();

  std::unordered_set<trace::Tac> wear_tacs;
  for (const simnet::Subscriber& s : r.subscribers) {
    if (s.wearable_tac != 0) wear_tacs.insert(s.wearable_tac);
  }
  std::unordered_set<trace::UserId> wear_users;
  for (const trace::MmeRecord& rec : r.store.mme) {
    if (wear_tacs.contains(rec.tac)) wear_users.insert(rec.user_id);
  }
  // Nearly every owner registers at least once over five months.
  EXPECT_GT(wear_users.size(), static_cast<std::size_t>(GetParam() * 9 / 10));
  EXPECT_LE(wear_users.size(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Scales, ScaleSweep,
                         ::testing::Values(40, 120, 360));

/// Sessionization-gap sweep: the number of usages is monotone
/// non-increasing in the gap parameter (a coarser gap merges usages).
class GapSweep : public ::testing::TestWithParam<int> {};

TEST_P(GapSweep, UsageCountMonotoneInGap) {
  const std::uint64_t seed = testing::seed_or(3);
  WEARSCOPE_SCOPED_SEED(seed);
  const simnet::SimResult sim = simnet::Simulator(sweep_config(seed)).run();
  const auto usages_with_gap = [&](util::SimTime gap) {
    core::AnalysisOptions opt;
    opt.observation_days = sim.observation_days;
    opt.detailed_start_day = sim.detailed_start_day;
    opt.long_tail_apps = sim.config.long_tail_apps;
    opt.usage_gap_s = gap;
    const core::AnalysisContext ctx(sim.store, opt);
    std::size_t n = 0;
    for (const core::UserView* u : ctx.wearable_users()) n += u->usages.size();
    return n;
  };
  const std::size_t tight = usages_with_gap(GetParam());
  const std::size_t loose = usages_with_gap(GetParam() * 4);
  EXPECT_GE(tight, loose);
}

INSTANTIATE_TEST_SUITE_P(Gaps, GapSweep, ::testing::Values(15, 30, 60));

/// Chaos sweep: for random record-level fault plans, live snapshots at
/// every shard count from one to eight must agree bitwise with the batch
/// pipeline on the surviving records, and the quarantine counters must
/// equal the injected faults exactly.  (The full profile x seed matrix
/// lives in test_chaos_differential.cpp; this sweep ties the property to
/// the same seeds the other sweeps exercise.)
class ChaosSweep : public SeedSweep {};

TEST_P(ChaosSweep, FaultedLiveMatchesBatchAtEveryShardCount) {
  const std::uint64_t seed = GetParam();
  WEARSCOPE_SCOPED_SEED(seed);
  const simnet::SimResult& sim = result_for(seed);

  chaos::DiffOptions opt;
  // Decorrelate the fault-plan stream from the generator seed.
  opt.seed = seed * 31 + 7;
  opt.profile = chaos::FaultProfile::named(seed % 2 == 0 ? "records"
                                                         : "records-heavy");
  opt.shard_counts = {1, 3, 8};
  opt.analysis.observation_days = sim.observation_days;
  opt.analysis.detailed_start_day = sim.detailed_start_day;
  opt.analysis.long_tail_apps = sim.config.long_tail_apps;

  const chaos::DiffReport rep = chaos::run_differential(sim.store, opt);
  std::string detail;
  for (const std::string& mm : rep.mismatches) detail += "  " + mm + "\n";
  EXPECT_TRUE(rep.passed) << rep.summary() << "\n" << detail;
  EXPECT_GT(rep.observed.total_dropped(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep, ::testing::Values(23, 1234));

/// Federation sweep: the merged snapshot of an N-way partition cover must
/// not depend on N.  Every canonical serve response (the deterministic
/// renderers of serve/query.h) is byte-compared across covers at 1, 2, 3,
/// 5 and 8 partitions over the same sweep population — prime, even and
/// power-of-two counts so shard_of stripes the users differently every
/// time.  (The federated == batch gate itself lives in test_fed.cpp; this
/// sweep ties partition-count independence to the sweep seeds.)
class FedSweep : public SeedSweep {};

TEST_P(FedSweep, MergedCoverIsPartitionCountInvariant) {
  const std::uint64_t seed = GetParam();
  WEARSCOPE_SCOPED_SEED(seed);
  const simnet::SimResult& sim = result_for(seed);

  const auto render_all = [](const live::LiveSnapshot& s) {
    return serve::render_adoption(s.epoch, s.records, s.adoption) +
           serve::render_activity(s.epoch, s.records, s.activity,
                                  s.class_txns) +
           serve::render_top_apps(s.epoch, 10, s.apps) +
           serve::render_sectors(s.epoch, 10, s.sectors) +
           serve::render_quarantine(s.epoch, s.quarantine);
  };

  const auto cover = [&](std::size_t partitions) {
    std::vector<fed::LoadedPartial> parts;
    for (std::size_t id = 0; id < partitions; ++id) {
      live::LiveOptions opt;
      opt.shards = 2;
      opt.observation_days = sim.observation_days;
      opt.detailed_start_day = sim.detailed_start_day;
      opt.long_tail_apps = sim.config.long_tail_apps;
      opt.partition_id = id;
      opt.partition_count = partitions;
      opt.capture_tallies = true;
      live::LiveEngine engine(sim.store.devices, opt);
      (void)live::FeedReplayer(sim.store, live::ReplayOptions{})
          .replay(engine);
      parts.push_back(fed::LoadedPartial{
          fed::make_partial(engine.stop(), opt),
          "mem:" + std::to_string(id) + "of" + std::to_string(partitions)});
    }
    return parts;
  };

  std::string reference;
  std::size_t reference_partitions = 0;
  for (const std::size_t partitions : {1u, 2u, 3u, 5u, 8u}) {
    const fed::MergeResult merged = fed::merge_partials(cover(partitions));
    EXPECT_EQ(merged.merged_partitions, partitions);
    const std::string rendered = render_all(merged.snapshot);
    if (reference.empty()) {
      reference = rendered;
      reference_partitions = partitions;
    } else {
      EXPECT_EQ(rendered, reference)
          << partitions << "-way cover diverged from "
          << reference_partitions << "-way";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FedSweep, ::testing::Values(23, 1234));

}  // namespace
}  // namespace wearscope
