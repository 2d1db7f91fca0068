// TailOracle: the dense-id cohorts, retention and mobility passes and the
// through-device pass against the oracles of row_oracle.h, field by field
// and exact on doubles (bit patterns, so even a NaN must match), on
// simulated captures at 1, 3, 4 and 8 threads, on anonymized and
// chaos-damaged stores, and on micro stores built around each pass's edge
// cases.  The through-device pass is also checked as the pipeline runs
// it, in user slices, and under arbitrary slicings.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "core/analysis_cohorts.h"
#include "core/analysis_mobility.h"
#include "core/analysis_retention.h"
#include "core/analysis_throughdevice.h"
#include "core/context.h"
#include "core/pipeline.h"
#include "row_oracle.h"
#include "simnet/simulator.h"
#include "test_support.h"
#include "trace/anonymize.h"
#include "trace/sanitize.h"

namespace wearscope::core {
namespace {

void expect_bits(double a, double b, const std::string& what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void expect_bits(const std::vector<double>& a, const std::vector<double>& b,
                 const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    expect_bits(a[i], b[i], what + "[" + std::to_string(i) + "]");
}

void expect_same(const CohortResult& a, const CohortResult& b,
                 const std::string& what) {
  ASSERT_EQ(a.models.size(), b.models.size()) << what;
  for (std::size_t i = 0; i < a.models.size(); ++i) {
    const ModelCohort& x = a.models[i];
    const ModelCohort& y = b.models[i];
    const std::string at = what + " model " + std::to_string(i);
    EXPECT_EQ(x.tac, y.tac) << at;
    EXPECT_EQ(x.model, y.model) << at;
    EXPECT_EQ(x.manufacturer, y.manufacturer) << at;
    EXPECT_EQ(x.os, y.os) << at;
    EXPECT_EQ(x.users, y.users) << at;
    EXPECT_EQ(x.active_users, y.active_users) << at;
    expect_bits(x.txns, y.txns, at + " txns");
    expect_bits(x.bytes, y.bytes, at + " bytes");
    expect_bits(x.mean_active_days, y.mean_active_days, at + " active days");
  }
  ASSERT_EQ(a.manufacturer_share.size(), b.manufacturer_share.size()) << what;
  for (std::size_t i = 0; i < a.manufacturer_share.size(); ++i) {
    EXPECT_EQ(a.manufacturer_share[i].first, b.manufacturer_share[i].first)
        << what;
    expect_bits(a.manufacturer_share[i].second,
                b.manufacturer_share[i].second, what + " vendor share");
  }
  expect_bits(a.samsung_lg_share, b.samsung_lg_share, what + " samsung+lg");
}

void expect_same(const RetentionResult& a, const RetentionResult& b,
                 const std::string& what) {
  ASSERT_EQ(a.cohorts.size(), b.cohorts.size()) << what;
  for (std::size_t i = 0; i < a.cohorts.size(); ++i) {
    const std::string at = what + " cohort " + std::to_string(i);
    EXPECT_EQ(a.cohorts[i].adoption_week, b.cohorts[i].adoption_week) << at;
    EXPECT_EQ(a.cohorts[i].size, b.cohorts[i].size) << at;
    expect_bits(a.cohorts[i].survival, b.cohorts[i].survival, at);
  }
  expect_bits(a.survival_4w, b.survival_4w, what + " 4w");
  expect_bits(a.survival_8w, b.survival_8w, what + " 8w");
  expect_bits(a.survival_12w, b.survival_12w, what + " 12w");
}

void expect_same(const MobilityResult& a, const MobilityResult& b,
                 const std::string& what) {
  expect_bits(a.wearable_displacement_km.sorted(),
              b.wearable_displacement_km.sorted(), what + " wearable ecdf");
  expect_bits(a.all_displacement_km.sorted(), b.all_displacement_km.sorted(),
              what + " all ecdf");
  expect_bits(a.wearable_mean_km, b.wearable_mean_km, what + " wearable km");
  expect_bits(a.all_mean_km, b.all_mean_km, what + " all km");
  expect_bits(a.displacement_ratio, b.displacement_ratio, what + " ratio");
  expect_bits(a.frac_under_30km, b.frac_under_30km, what + " < 30 km");
  expect_bits(a.wearable_entropy_bits, b.wearable_entropy_bits,
              what + " wearable entropy");
  expect_bits(a.all_entropy_bits, b.all_entropy_bits, what + " all entropy");
  expect_bits(a.entropy_ratio, b.entropy_ratio, what + " entropy ratio");
  expect_bits(a.single_location_fraction, b.single_location_fraction,
              what + " single location");
  expect_bits(a.nonstationary_ratio, b.nonstationary_ratio,
              what + " nonstationary");
  expect_bits(a.displacement_vs_txns.x_centers,
              b.displacement_vs_txns.x_centers, what + " 4d x");
  expect_bits(a.displacement_vs_txns.y_means, b.displacement_vs_txns.y_means,
              what + " 4d y");
  EXPECT_EQ(a.displacement_vs_txns.n, b.displacement_vs_txns.n) << what;
  expect_bits(a.mobility_activity_corr, b.mobility_activity_corr,
              what + " spearman");
  expect_bits(a.binned_trend_corr, b.binned_trend_corr, what + " trend");
}

void expect_same(const ThroughDeviceResult& a, const ThroughDeviceResult& b,
                 const std::string& what) {
  EXPECT_EQ(a.detected_users, b.detected_users) << what;
  EXPECT_EQ(a.per_signature, b.per_signature) << what;
  EXPECT_EQ(a.signature_names, b.signature_names) << what;
  expect_bits(a.daily_txn_ratio, b.daily_txn_ratio, what + " txn ratio");
  expect_bits(a.daily_bytes_ratio, b.daily_bytes_ratio, what + " byte ratio");
  expect_bits(a.entropy_ratio, b.entropy_ratio, what + " entropy ratio");
  expect_bits(std::vector<double>(a.td_hourly.begin(), a.td_hourly.end()),
              std::vector<double>(b.td_hourly.begin(), b.td_hourly.end()),
              what + " td hourly");
  expect_bits(std::vector<double>(a.sim_hourly.begin(), a.sim_hourly.end()),
              std::vector<double>(b.sim_hourly.begin(), b.sim_hourly.end()),
              what + " sim hourly");
  expect_bits(a.diurnal_similarity, b.diurnal_similarity,
              what + " diurnal similarity");
}

void expect_tail_matches(const AnalysisContext& ctx, const std::string& what) {
  expect_same(analyze_cohorts(ctx), oracle::cohorts_rows(ctx),
              what + ", cohorts");
  expect_same(analyze_retention(ctx), oracle::retention_rows(ctx),
              what + ", retention");
  expect_same(analyze_mobility(ctx), oracle::mobility_rows(ctx),
              what + ", mobility");
  expect_same(analyze_throughdevice(ctx), oracle::throughdevice_rows(ctx),
              what + ", throughdevice");
}

const simnet::SimResult& small_capture(std::uint64_t seed) {
  static std::vector<std::unique_ptr<simnet::SimResult>> cache(4);
  std::unique_ptr<simnet::SimResult>& slot = cache.at(seed);
  if (!slot) {
    simnet::SimConfig cfg = simnet::SimConfig::small();
    cfg.seed = seed;
    slot = std::make_unique<simnet::SimResult>(simnet::Simulator(cfg).run());
  }
  return *slot;
}

AnalysisOptions options_of(const simnet::SimResult& sim, int threads = 1) {
  AnalysisOptions o;
  o.observation_days = sim.observation_days;
  o.detailed_start_day = sim.detailed_start_day;
  o.long_tail_apps = sim.config.long_tail_apps;
  o.threads = threads;
  return o;
}

class TailOracleSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TailOracleSeed, SimulatedSmallPresetAtOneAndFourThreads) {
  const simnet::SimResult& sim = small_capture(GetParam());
  for (const int threads : {1, 4}) {
    const AnalysisContext ctx(sim.store, options_of(sim, threads));
    expect_tail_matches(ctx, "seed " + std::to_string(GetParam()) + " at " +
                                 std::to_string(threads) + " threads");
  }
}

TEST_P(TailOracleSeed, SimulatedSmallPresetAtThreeAndEightThreads) {
  const simnet::SimResult& sim = small_capture(GetParam());
  for (const int threads : {3, 8}) {
    const AnalysisContext ctx(sim.store, options_of(sim, threads));
    expect_tail_matches(ctx, "seed " + std::to_string(GetParam()) + " at " +
                                 std::to_string(threads) + " threads");
  }
}

INSTANTIATE_TEST_SUITE_P(TailOracle, TailOracleSeed,
                         ::testing::Values(1u, 2u, 3u));

TEST(TailOracle, PipelineRunsThePassesConcurrently) {
  // The pipeline runs every pass at once on one const context; their
  // results must still be the oracles'.
  const simnet::SimResult& sim = small_capture(1);
  const Pipeline pipeline(sim.store, options_of(sim, 4));
  const StudyReport report = pipeline.run();
  const AnalysisContext& ctx = pipeline.context();
  expect_same(report.cohorts, oracle::cohorts_rows(ctx), "cohorts");
  expect_same(report.retention, oracle::retention_rows(ctx), "retention");
  expect_same(report.mobility, oracle::mobility_rows(ctx), "mobility");
}

TEST(TailOracle, ThroughDeviceSlicedByThePipeline) {
  // The pipeline cuts the through-device pass into one user slice per
  // thread, weighted by phone transactions, and merges the partials.
  const simnet::SimResult& sim = small_capture(2);
  for (const int threads : {1, 3, 4, 8}) {
    const Pipeline pipeline(sim.store, options_of(sim, threads));
    expect_same(pipeline.run().throughdevice,
                oracle::throughdevice_rows(pipeline.context()),
                std::to_string(threads) + " threads");
  }
}

TEST(TailOracle, ThroughDeviceUnderAnySlicing) {
  const simnet::SimResult& sim = small_capture(1);
  const AnalysisContext ctx(sim.store, options_of(sim));
  const ThroughDeviceResult want = oracle::throughdevice_rows(ctx);
  const ThroughDevicePass pass(ctx);
  const std::size_t n = ctx.users().size();
  ASSERT_GT(n, 10u);
  // Every user alone, uneven cuts, and empty slices at both ends.
  std::vector<ThroughDevicePartial> singles;
  for (std::size_t i = 0; i < n; ++i) singles.push_back(pass.partial(i, i + 1));
  expect_same(pass.finish(singles), want, "one user per slice");
  const std::vector<std::size_t> cuts = {0, 0, 1, 7, n / 2, n - 3, n, n};
  std::vector<ThroughDevicePartial> uneven;
  for (std::size_t s = 0; s + 1 < cuts.size(); ++s)
    uneven.push_back(pass.partial(cuts[s], cuts[s + 1]));
  expect_same(pass.finish(uneven), want, "uneven slices");
}

TEST(TailOracle, AnonymizedStore) {
  // Anonymized user ids are 64-bit hashes.
  const simnet::SimResult& sim = small_capture(2);
  trace::TraceStore store = sim.store;
  trace::AnonymizePolicy policy;
  policy.key = 0x5eedf00dULL;
  trace::anonymize(store, policy);
  const AnalysisContext ctx(store, options_of(sim));
  expect_tail_matches(ctx, "anonymized");
}

TEST(TailOracle, SanitizedChaosStore) {
  // Duplicates, regressions, unknown TACs and hostile hosts, sanitized.
  const simnet::SimResult& sim = small_capture(3);
  trace::TraceStore store = sim.store;
  const chaos::FaultPlan plan(11, chaos::FaultProfile::named("records-heavy"));
  const chaos::FaultManifest manifest = plan.inject_records(store);
  ASSERT_GT(manifest.expected.unknown_tac, 0u);
  {
    // Damaged but sorted: unknown TACs and duplicates reach the passes.
    trace::TraceStore damaged = store;
    damaged.sort_by_time();
    const AnalysisContext ctx(damaged, options_of(sim));
    expect_tail_matches(ctx, "chaos, unsanitized");
  }
  EXPECT_TRUE(trace::sanitize_store(store) == manifest.expected);
  store.sort_by_time();
  const AnalysisContext ctx(store, options_of(sim));
  expect_tail_matches(ctx, "chaos, sanitized");
}

// ---- Micro stores -----------------------------------------------------------

constexpr trace::Tac kGearTac = 35254208;  // Samsung Gear S3 frontier LTE
constexpr trace::Tac kLgTac = 35909306;    // LG Watch Urbane 2nd LTE
constexpr trace::Tac kPhoneTac = 35332008;  // iPhone 7

util::SimTime at(int day, int hour, int second = 0) {
  return util::day_start(day) + hour * 3600 + second;
}

struct MicroStore {
  trace::TraceStore store;

  MicroStore() {
    store.devices = {
        {kGearTac, "Gear S3 frontier LTE", "Samsung", "Tizen"},
        {kLgTac, "Watch Urbane 2nd Edition LTE", "LG", "Android Wear"},
        {kPhoneTac, "iPhone 7", "Apple", "iOS"},
    };
    store.sectors = {{1, {40.0, -3.0}}, {2, {40.1, -3.0}}, {3, {40.3, -3.2}}};
  }
  void mme(util::SimTime t, trace::UserId u, trace::Tac tac,
           trace::SectorId sector) {
    store.mme.push_back({t, u, tac, trace::MmeEvent::kHandover, sector});
  }
  void txn(util::SimTime t, trace::UserId u, trace::Tac tac) {
    trace::ProxyRecord r;
    r.timestamp = t;
    r.user_id = u;
    r.tac = tac;
    testing::set_strings(r, store, "api.weather.com");
    r.bytes_down = 1000 + static_cast<std::uint64_t>(t % 977);
    store.proxy.push_back(r);
  }
  AnalysisContext context(int observation_days, int detailed_start_day) {
    store.sort_by_time();
    AnalysisOptions o;
    o.observation_days = observation_days;
    o.detailed_start_day = detailed_start_day;
    o.long_tail_apps = 10;
    return AnalysisContext(store, o);
  }
};

TEST(TailOracle, MicroEdgeCases) {
  MicroStore m;
  // User 1: wearable traffic and no MME row at all.
  m.txn(at(8, 9), 1, kGearTac);
  m.txn(at(9, 9), 1, kGearTac);
  // User 2: transactions before the first, at the same second as, and
  // after the last MME event; MME before the window and across days.
  m.mme(at(2, 6), 2, kGearTac, 1);
  m.txn(at(7, 5), 2, kGearTac);
  m.mme(at(7, 8), 2, kGearTac, 2);
  m.txn(at(7, 8), 2, kGearTac);
  m.mme(at(7, 12), 2, kPhoneTac, 3);
  m.mme(at(8, 1), 2, kGearTac, 1);
  m.txn(at(8, 23, 59), 2, kGearTac);
  m.txn(at(13, 3), 2, kGearTac);
  // User 3: one sector throughout, two models on one day.
  for (int day = 7; day < 12; ++day) {
    m.mme(at(day, 7), 3, kLgTac, 2);
    m.mme(at(day, 19), 3, kGearTac, 2);
    m.txn(at(day, 10), 3, kLgTac);
    m.txn(at(day, 10, 30), 3, kGearTac);
    m.txn(at(day, 11), 3, kLgTac);
    m.txn(at(day, 20), 3, kLgTac);
  }
  // User 4: a phone with MME only; user 5: a sector without a position.
  m.mme(at(7, 9), 4, kPhoneTac, 1);
  m.mme(at(7, 10), 4, kPhoneTac, 3);
  m.mme(at(9, 9), 5, kLgTac, 99);
  m.mme(at(9, 15), 5, kLgTac, 1);
  m.txn(at(9, 16), 5, kLgTac);
  {
    const AnalysisContext ctx = m.context(14, 7);
    ASSERT_EQ(ctx.users().size(), 5u);
    expect_tail_matches(ctx, "micro");
    const MobilityResult r = analyze_mobility(ctx);
    EXPECT_GT(r.single_location_fraction, 0.0);
    EXPECT_LT(r.single_location_fraction, 1.0);
  }
  // Many more known sectors than visited ones: the dense position table
  // must still resolve each visited sector to its own row.
  for (trace::SectorId id = 1000; id < 2100; ++id)
    m.store.sectors.push_back({id, {41.0, -3.0 + id * 1e-4}});
  expect_tail_matches(m.context(14, 7), "micro, 1103 sectors");
}

TEST(TailOracle, RetentionBeyondSixtyFourWeeks) {
  // 65 observable weeks: a fixed 64-bit week mask would lose week 64.
  MicroStore m;
  const int days = 65 * 7;
  m.mme(at(0, 9), 1, kGearTac, 1);
  m.mme(at(30 * 7, 9), 1, kGearTac, 1);
  m.mme(at(64 * 7 + 3, 9), 1, kGearTac, 1);
  m.mme(at(63 * 7, 9), 2, kGearTac, 1);
  m.mme(at(64 * 7, 9), 2, kGearTac, 1);
  m.mme(at(65 * 7, 9), 2, kGearTac, 1);  // past the window: ignored
  m.txn(at(64 * 7 + 3, 10), 1, kGearTac);
  const AnalysisContext ctx = m.context(days, days - 21);
  const RetentionResult r = analyze_retention(ctx);
  ASSERT_EQ(r.cohorts.size(), 2u);
  EXPECT_EQ(r.cohorts[0].adoption_week, 0);
  ASSERT_EQ(r.cohorts[0].survival.size(), 65u);
  EXPECT_DOUBLE_EQ(r.cohorts[0].survival[30], 1.0);
  EXPECT_DOUBLE_EQ(r.cohorts[0].survival[64], 1.0);
  EXPECT_EQ(r.cohorts[1].adoption_week, 63);
  EXPECT_EQ(r.cohorts[1].survival, (std::vector<double>{1.0, 1.0}));
  expect_tail_matches(ctx, "65 weeks");
}

}  // namespace
}  // namespace wearscope::core
