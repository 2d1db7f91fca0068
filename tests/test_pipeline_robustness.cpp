// Robustness of the full pipeline on degenerate captures: empty logs,
// wearables-only, phones-only, single-user — every analysis must complete
// without crashing and return well-defined (zeroed) statistics.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "util/geo.h"
#include "test_support.h"

namespace wearscope::core {
namespace {

constexpr trace::Tac kWearTac = 35254208;
constexpr trace::Tac kPhoneTac = 35332008;

trace::TraceStore base_store() {
  trace::TraceStore s;
  s.devices = {
      {kWearTac, "Gear S3 frontier LTE", "Samsung", "Tizen"},
      {kPhoneTac, "iPhone 7", "Apple", "iOS"},
  };
  s.sectors = {{1, util::GeoPoint{40.0, -3.0}}};
  return s;
}

AnalysisOptions options() {
  AnalysisOptions o;
  o.observation_days = 28;
  o.detailed_start_day = 14;
  o.long_tail_apps = 10;
  return o;
}

TEST(PipelineRobustness, CompletelyEmptyLogs) {
  const trace::TraceStore store = base_store();
  const Pipeline pipeline(store, options());
  const StudyReport rep = pipeline.run();
  EXPECT_EQ(rep.figures.size(), 20u);
  EXPECT_EQ(rep.adoption.ever_registered, 0u);
  EXPECT_DOUBLE_EQ(rep.comparison.data_ratio, 0.0);
  EXPECT_DOUBLE_EQ(rep.mobility.wearable_mean_km, 0.0);
  EXPECT_TRUE(rep.apps.apps.empty());
  EXPECT_TRUE(rep.usage.apps.empty());
  EXPECT_TRUE(rep.cohorts.models.empty());
  EXPECT_TRUE(rep.retention.cohorts.empty());
  // Rendering must not crash either.
  EXPECT_FALSE(rep.to_text().empty());
}

TEST(PipelineRobustness, SingleWearableTransaction) {
  trace::TraceStore store = base_store();
  trace::ProxyRecord r;
  r.timestamp = util::day_start(20) + 3600;
  r.user_id = 1;
  r.tac = kWearTac;
  testing::set_strings(r, store, "api.weather.com");
  r.bytes_down = 1000;
  store.proxy.push_back(r);
  store.mme.push_back({util::day_start(20), 1, kWearTac,
                       trace::MmeEvent::kAttach, 1});
  store.sort_by_time();
  const Pipeline pipeline(store, options());
  const StudyReport rep = pipeline.run();
  EXPECT_EQ(rep.adoption.ever_registered, 1u);
  EXPECT_EQ(rep.adoption.ever_transacted, 1u);
  ASSERT_EQ(rep.apps.apps.size(), 1u);
  EXPECT_EQ(rep.apps.apps[0].name, "Weather");
  EXPECT_DOUBLE_EQ(rep.activity.mean_txn_bytes, 1000.0);
}

TEST(PipelineRobustness, PhonesOnlyCapture) {
  trace::TraceStore store = base_store();
  for (int d = 14; d < 28; ++d) {
    trace::ProxyRecord r;
    r.timestamp = util::day_start(d) + 7200;
    r.user_id = 5;
    r.tac = kPhoneTac;
    testing::set_strings(r, store, "graph.facebook.com");
    r.bytes_down = 50'000;
    store.proxy.push_back(r);
    store.mme.push_back({util::day_start(d), 5, kPhoneTac,
                         trace::MmeEvent::kAttach, 1});
  }
  store.sort_by_time();
  const Pipeline pipeline(store, options());
  const StudyReport rep = pipeline.run();
  EXPECT_EQ(rep.adoption.ever_registered, 0u);
  EXPECT_TRUE(rep.apps.apps.empty());
  // Mobility's "all users" side still sees the phone user.
  EXPECT_EQ(rep.mobility.all_displacement_km.size(), 1u);
}

TEST(PipelineRobustness, UnknownTacsDoNotCrash) {
  trace::TraceStore store = base_store();
  trace::ProxyRecord r;
  r.timestamp = util::day_start(20);
  r.user_id = 9;
  r.tac = 99999999;  // absent from the DeviceDB
  testing::set_strings(r, store, "mystery.example");
  r.bytes_down = 10;
  store.proxy.push_back(r);
  store.mme.push_back({util::day_start(20), 9, 99999999,
                       trace::MmeEvent::kAttach, 1});
  store.sort_by_time();
  const Pipeline pipeline(store, options());
  const StudyReport rep = pipeline.run();
  // Unknown devices classify as non-wearable: user 9 lands in "others".
  EXPECT_EQ(rep.adoption.ever_registered, 0u);
  EXPECT_EQ(pipeline.context().other_users().size(), 1u);
}

TEST(PipelineRobustness, MmeReferencingUnknownSector) {
  trace::TraceStore store = base_store();
  store.mme.push_back({util::day_start(20), 1, kWearTac,
                       trace::MmeEvent::kAttach, 777});  // no such sector
  store.sort_by_time();
  const Pipeline pipeline(store, options());
  // Displacement computation skips sectors it cannot locate.
  const StudyReport rep = pipeline.run();
  EXPECT_DOUBLE_EQ(rep.mobility.wearable_mean_km, 0.0);
}

}  // namespace
}  // namespace wearscope::core
