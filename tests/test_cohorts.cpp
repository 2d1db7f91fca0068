// Tests for the device-model cohort extension (§4.1 vendor mix).
#include "core/analysis_cohorts.h"

#include <gtest/gtest.h>

#include "core/context.h"
#include "simnet/simulator.h"
#include "util/geo.h"
#include "test_support.h"

namespace wearscope::core {
namespace {

constexpr trace::Tac kGearTac = 35254208;   // Samsung Gear S3 frontier LTE
constexpr trace::Tac kGear2Tac = 35254209;  // second TAC of the same model
constexpr trace::Tac kLgTac = 35909306;     // LG Watch Urbane 2nd LTE
constexpr trace::Tac kPhoneTac = 35332008;  // iPhone 7

trace::TraceStore micro_store() {
  trace::TraceStore s;
  s.devices = {
      {kGearTac, "Gear S3 frontier LTE", "Samsung", "Tizen"},
      {kGear2Tac, "Gear S3 frontier LTE", "Samsung", "Tizen"},
      {kLgTac, "Watch Urbane 2nd Edition LTE", "LG", "Android Wear"},
      {kPhoneTac, "iPhone 7", "Apple", "iOS"},
  };
  s.sectors = {{1, util::GeoPoint{40.0, -3.0}}};
  const auto mme = [&](trace::UserId u, trace::Tac tac) {
    s.mme.push_back({100 + static_cast<util::SimTime>(u), u, tac,
                     trace::MmeEvent::kAttach, 1});
  };
  const auto proxy = [&](trace::UserId u, trace::Tac tac, int day) {
    trace::ProxyRecord r;
    r.timestamp = util::day_start(day) + 1000 + static_cast<util::SimTime>(u);
    r.user_id = u;
    r.tac = tac;
    testing::set_strings(r, s, "api.weather.com");
    r.bytes_down = 1000;
    s.proxy.push_back(r);
  };
  // Users 1 and 2 carry Gear S3s (different TACs, same model); user 3 an
  // LG watch; user 4 only a phone.
  mme(1, kGearTac);
  mme(2, kGear2Tac);
  mme(3, kLgTac);
  mme(4, kPhoneTac);
  proxy(1, kGearTac, 0);
  proxy(1, kGearTac, 1);
  proxy(3, kLgTac, 0);
  s.sort_by_time();
  return s;
}

AnalysisContext micro_context(const trace::TraceStore& store) {
  AnalysisOptions o;
  o.observation_days = 14;
  o.detailed_start_day = 0;
  o.long_tail_apps = 10;
  return AnalysisContext(store, o);
}

TEST(Cohorts, MergesTacsOfOneModelAndCountsUsers) {
  const trace::TraceStore store = micro_store();
  const AnalysisContext ctx = micro_context(store);
  const CohortResult r = analyze_cohorts(ctx);
  ASSERT_EQ(r.models.size(), 2u);
  EXPECT_EQ(r.models[0].model, "Gear S3 frontier LTE");
  EXPECT_EQ(r.models[0].users, 2u);  // both TACs merged into one cohort
  EXPECT_EQ(r.models[0].active_users, 1u);
  EXPECT_DOUBLE_EQ(r.models[0].txns, 2.0);
  EXPECT_DOUBLE_EQ(r.models[0].bytes, 2000.0);
  EXPECT_DOUBLE_EQ(r.models[0].mean_active_days, 2.0);
  EXPECT_EQ(r.models[1].model, "Watch Urbane 2nd Edition LTE");
  EXPECT_EQ(r.models[1].users, 1u);
}

TEST(Cohorts, ManufacturerSharesSumToOne) {
  const trace::TraceStore store = micro_store();
  const AnalysisContext ctx = micro_context(store);
  const CohortResult r = analyze_cohorts(ctx);
  double total = 0.0;
  for (const auto& [vendor, share] : r.manufacturer_share) total += share;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_EQ(r.manufacturer_share[0].first, "Samsung");
  EXPECT_NEAR(r.manufacturer_share[0].second, 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(r.samsung_lg_share, 1.0, 1e-9);
}

TEST(Cohorts, SimulatedPopulationDominatedBySamsungLg) {
  simnet::SimConfig cfg = simnet::SimConfig::small();
  cfg.seed = 17;
  const simnet::SimResult sim = simnet::Simulator(cfg).run();
  AnalysisOptions o;
  o.observation_days = sim.observation_days;
  o.detailed_start_day = sim.detailed_start_day;
  o.long_tail_apps = cfg.long_tail_apps;
  const AnalysisContext ctx(sim.store, o);
  const CohortResult r = analyze_cohorts(ctx);
  EXPECT_GT(r.samsung_lg_share, 0.8);  // §4.1: "most users"
  EXPECT_GE(r.models.size(), 5u);
  // Figure checks pass too.
  EXPECT_TRUE(figure_cohorts(r).all_pass());
}

TEST(Cohorts, DistinctUsersNeverShareAnActiveDay) {
  // Ids that differ only in their top bits (anonymized ids span all 64)
  // are still two users, each active on the one day.
  trace::TraceStore s;
  s.devices = {{kGearTac, "Gear S3 frontier LTE", "Samsung", "Tizen"}};
  s.sectors = {{1, util::GeoPoint{40.0, -3.0}}};
  const trace::UserId ids[] = {7, trace::UserId{7} | trace::UserId{1} << 60};
  for (const trace::UserId u : ids) {
    s.mme.push_back({100, u, kGearTac, trace::MmeEvent::kAttach, 1});
    trace::ProxyRecord r;
    r.timestamp = util::day_start(3) + 1000;
    r.user_id = u;
    r.tac = kGearTac;
    testing::set_strings(r, s, "api.weather.com");
    r.bytes_down = 1000;
    s.proxy.push_back(r);
  }
  s.sort_by_time();
  const AnalysisContext ctx = micro_context(s);
  const CohortResult r = analyze_cohorts(ctx);
  ASSERT_EQ(r.models.size(), 1u);
  EXPECT_EQ(r.models[0].users, 2u);
  EXPECT_EQ(r.models[0].active_users, 2u);
  EXPECT_DOUBLE_EQ(r.models[0].mean_active_days, 1.0);
}

TEST(Cohorts, EmptyStore) {
  trace::TraceStore store;
  store.devices = {{kGearTac, "Gear S3 frontier LTE", "Samsung", "Tizen"}};
  store.sort_by_time();
  const AnalysisContext ctx = micro_context(store);
  const CohortResult r = analyze_cohorts(ctx);
  EXPECT_TRUE(r.models.empty());
  EXPECT_DOUBLE_EQ(r.samsung_lg_share, 0.0);
}

}  // namespace
}  // namespace wearscope::core
