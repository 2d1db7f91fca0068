// Tests for the HTTPS-readiness extension analysis.
#include "core/analysis_protocol.h"

#include <gtest/gtest.h>

#include "core/context.h"
#include "simnet/simulator.h"
#include "util/geo.h"
#include "test_support.h"

namespace wearscope::core {
namespace {

constexpr trace::Tac kWearTac = 35254208;

trace::TraceStore micro_store() {
  trace::TraceStore s;
  s.devices = {{kWearTac, "Gear S3 frontier LTE", "Samsung", "Tizen"}};
  s.sectors = {{1, util::GeoPoint{40.0, -3.0}}};
  const auto txn = [&](int minute, const char* host, bool http,
                       std::uint64_t bytes) {
    trace::ProxyRecord r;
    r.timestamp = util::day_start(1) + 3600 + minute * 60;
    r.user_id = 1;
    r.tac = kWearTac;
    r.protocol = http ? trace::Protocol::kHttp : trace::Protocol::kHttps;
    testing::set_strings(r, s, host, http ? "/x" : "");
    r.bytes_down = bytes;
    s.proxy.push_back(r);
  };
  // Weather (Weather category): 3 HTTPS of 1000 B + 1 HTTP of 2000 B.
  txn(0, "api.weather.com", false, 1000);
  txn(2, "api.weather.com", false, 1000);
  txn(4, "api.weather.com", false, 1000);
  txn(6, "api.weather.com", true, 2000);
  // WhatsApp (Communication): 1 HTTPS of 5000 B.
  txn(30, "e1.whatsapp.net", false, 5000);
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

TEST(Protocol, ExactSharesOnMicroTrace) {
  const trace::TraceStore store = micro_store();
  const AnalysisContext ctx = micro_context(store);
  const ProtocolResult r = analyze_protocol(ctx);
  EXPECT_DOUBLE_EQ(r.https_txn_share, 4.0 / 5.0);
  EXPECT_DOUBLE_EQ(r.https_data_share, 8000.0 / 10000.0);
  EXPECT_DOUBLE_EQ(r.http_txns, 1.0);
  EXPECT_DOUBLE_EQ(r.https_txns, 4.0);

  // Per-category: Weather is 1/4 HTTP txns, Communication fully HTTPS.
  ASSERT_EQ(r.by_category.size(), 2u);
  EXPECT_EQ(r.by_category[0].category, appdb::Category::kWeather);
  EXPECT_DOUBLE_EQ(r.by_category[0].http_txn_share, 0.25);
  EXPECT_DOUBLE_EQ(r.by_category[0].http_data_share, 0.4);
  EXPECT_EQ(r.by_category[1].category, appdb::Category::kCommunication);
  EXPECT_DOUBLE_EQ(r.by_category[1].http_txn_share, 0.0);
}

TEST(Protocol, EmptyTrafficYieldsZeros) {
  trace::TraceStore store;
  store.devices = {{kWearTac, "Gear S3 frontier LTE", "Samsung", "Tizen"}};
  store.sort_by_time();
  const AnalysisContext ctx = micro_context(store);
  const ProtocolResult r = analyze_protocol(ctx);
  EXPECT_DOUBLE_EQ(r.https_txn_share, 0.0);
  EXPECT_TRUE(r.by_category.empty());
  EXPECT_TRUE(r.plaintext_laggards.empty());
}

TEST(Protocol, SimulatedTrafficIsHttpsDominant) {
  simnet::SimConfig cfg = simnet::SimConfig::small();
  cfg.seed = 29;
  const simnet::SimResult sim = simnet::Simulator(cfg).run();
  AnalysisOptions o;
  o.observation_days = sim.observation_days;
  o.detailed_start_day = sim.detailed_start_day;
  o.long_tail_apps = cfg.long_tail_apps;
  const AnalysisContext ctx(sim.store, o);
  const ProtocolResult r = analyze_protocol(ctx);
  EXPECT_GT(r.https_txn_share, 0.85);
  EXPECT_GT(r.http_txns, 0.0) << "plaintext remnants must exist";
  EXPECT_TRUE(figure_protocol(r).all_pass());
  // Weather-poll apps carry the 10% HTTP remnant: Weather should sit near
  // the top of the plaintext ranking.
  ASSERT_FALSE(r.by_category.empty());
  bool weather_top3 = false;
  for (std::size_t i = 0; i < 3 && i < r.by_category.size(); ++i) {
    if (r.by_category[i].category == appdb::Category::kWeather)
      weather_top3 = true;
  }
  EXPECT_TRUE(weather_top3);
}

}  // namespace
}  // namespace wearscope::core
