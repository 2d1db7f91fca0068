// Unit tests for app identification and endpoint classification.
#include "core/app_id.h"
#include "test_support.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

namespace wearscope::core {
namespace {

class AppIdTest : public ::testing::Test {
 protected:
  appdb::AppCatalog catalog_{20};
  AppSignatureTable table_{catalog_};
};

TEST_F(AppIdTest, ExactDomainMatches) {
  const auto id = table_.match_app("api.weather.com");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(table_.app_name(*id), "Weather");
}

TEST_F(AppIdTest, SubdomainMatches) {
  const auto id = table_.match_app("cdn7.e1.whatsapp.net");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(table_.app_name(*id), "WhatsApp");
}

TEST_F(AppIdTest, CaseInsensitiveMatch) {
  const auto id = table_.match_app("API.Weather.COM");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(table_.app_name(*id), "Weather");
}

TEST_F(AppIdTest, UnknownHostHasNoApp) {
  EXPECT_FALSE(table_.match_app("random.unknown.example").has_value());
  EXPECT_FALSE(table_.match_app("weather.com.evil.example").has_value());
}

TEST_F(AppIdTest, ClassifyFirstParty) {
  const EndpointClass e = table_.classify_host("api.accuweather.com");
  EXPECT_EQ(e.cls, appdb::TransactionClass::kApplication);
  EXPECT_EQ(table_.app_name(e.app), "Accuweather");
}

TEST_F(AppIdTest, ClassifyThirdPartyPools) {
  EXPECT_EQ(table_.classify_host("img3.cloudfront.net").cls,
            appdb::TransactionClass::kUtilities);
  EXPECT_EQ(table_.classify_host("pubads.doubleclick.net").cls,
            appdb::TransactionClass::kAdvertising);
  EXPECT_EQ(table_.classify_host("ssl.google-analytics.com").cls,
            appdb::TransactionClass::kAnalytics);
}

TEST_F(AppIdTest, ClassifyByHeuristicLabels) {
  EXPECT_EQ(table_.classify_host("ads.tinyvendor.example").cls,
            appdb::TransactionClass::kAdvertising);
  EXPECT_EQ(table_.classify_host("metrics.tinyvendor.example").cls,
            appdb::TransactionClass::kAnalytics);
  EXPECT_EQ(table_.classify_host("telemetry.vendor.example").cls,
            appdb::TransactionClass::kAnalytics);
  // Labels must be whole: "roads" is not "ads".
  EXPECT_EQ(table_.classify_host("roads.googleapis.com").cls,
            appdb::TransactionClass::kApplication);
}

TEST_F(AppIdTest, UnknownFirstPartyDefaultsToApplication) {
  const EndpointClass e = table_.classify_host("api.obscureapp.example");
  EXPECT_EQ(e.cls, appdb::TransactionClass::kApplication);
  EXPECT_EQ(e.app, kUnknownApp);
  EXPECT_EQ(table_.app_name(e.app), "Unknown");
}

TEST_F(AppIdTest, UnmappedTailAppsStayUnknown) {
  // Tail apps 4, 8, 12, ... (0-based i%4==3) are not in the table.
  bool found_unmapped = false;
  for (const appdb::AppInfo& app : catalog_.apps()) {
    if (!app.in_signature_table) {
      EXPECT_FALSE(table_.match_app(app.domains.front()).has_value());
      found_unmapped = true;
    }
  }
  EXPECT_TRUE(found_unmapped);
}

TEST_F(AppIdTest, CategoriesResolve) {
  const auto id = table_.match_app("pay.samsung.com");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(table_.app_category(*id), appdb::Category::kShopping);
  EXPECT_FALSE(table_.app_category(kUnknownApp).has_value());
}

TEST_F(AppIdTest, CoverageFractionShrinksTable) {
  const AppSignatureTable full(catalog_, 1.0);
  const AppSignatureTable half(catalog_, 0.5);
  const AppSignatureTable none(catalog_, 0.0);
  EXPECT_GT(full.rule_count(), half.rule_count());
  EXPECT_EQ(none.rule_count(), 0u);
  EXPECT_NEAR(static_cast<double>(half.rule_count()),
              static_cast<double>(full.rule_count()) / 2.0, 1.0);
  EXPECT_GE(full.mapped_app_count(), 50u);
}

// --- temporal-proximity attribution ---------------------------------------

/// The pools the attribution rows below intern into.
trace::ProxyPools& rec_pools() {
  static trace::ProxyPools pools;
  return pools;
}

trace::ProxyRecord rec(util::SimTime t, const char* host) {
  trace::ProxyRecord r;
  r.timestamp = t;
  r.user_id = 1;
  testing::set_strings(r, rec_pools(), host);
  r.bytes_down = 100;
  return r;
}

/// Attributes `recs` as one user's whole stream, hosts classified through
/// a fresh cache over the pools the rows intern into.
std::vector<EndpointClass> attribute(
    const AppSignatureTable& table,
    const trace::Rows<trace::ProxyRecord>& recs) {
  HostClassCache cache(table, rec_pools().hosts);
  std::vector<std::uint32_t> rows(recs.size());
  std::iota(rows.begin(), rows.end(), 0u);
  return attribute_user_stream(cache, recs, rows, 120);
}

TEST_F(AppIdTest, ThirdPartyInheritsNearbyAppWithinWindow) {
  const trace::Rows<trace::ProxyRecord> recs = {
      rec(1000, "api.weather.com"),
      rec(1010, "pubads.doubleclick.net"),
      rec(1020, "ssl.google-analytics.com"),
  };
  const auto classes = attribute(table_, recs);
  ASSERT_EQ(classes.size(), 3u);
  EXPECT_EQ(table_.app_name(classes[0].app), "Weather");
  EXPECT_EQ(table_.app_name(classes[1].app), "Weather");
  EXPECT_EQ(classes[1].cls, appdb::TransactionClass::kAdvertising);
  EXPECT_EQ(table_.app_name(classes[2].app), "Weather");
}

TEST_F(AppIdTest, ThirdPartyOutsideWindowStaysUnknown) {
  const trace::Rows<trace::ProxyRecord> recs = {
      rec(1000, "api.weather.com"),
      rec(5000, "pubads.doubleclick.net"),  // 4000 s away
  };
  const auto classes = attribute(table_, recs);
  EXPECT_EQ(classes[1].app, kUnknownApp);
  EXPECT_EQ(classes[1].cls, appdb::TransactionClass::kAdvertising);
}

TEST_F(AppIdTest, NearestAnchorWins) {
  const trace::Rows<trace::ProxyRecord> recs = {
      rec(1000, "api.weather.com"),
      rec(1100, "pubads.doubleclick.net"),
      rec(1110, "e1.whatsapp.net"),
  };
  const auto classes = attribute(table_, recs);
  EXPECT_EQ(table_.app_name(classes[1].app), "WhatsApp");  // 10 s vs 100 s
}

TEST_F(AppIdTest, UnknownFirstPartyIsNotReattributed) {
  // First-party traffic of unmapped apps must NOT be stolen by proximity:
  // it belongs to a different (unknown) app, not to a nearby known one.
  const trace::Rows<trace::ProxyRecord> recs = {
      rec(1000, "api.weather.com"),
      rec(1010, "api.obscureapp.example"),
  };
  const auto classes = attribute(table_, recs);
  EXPECT_EQ(classes[1].app, kUnknownApp);
}

TEST_F(AppIdTest, StreamWithNoAnchorsStaysUnknown) {
  const trace::Rows<trace::ProxyRecord> recs = {
      rec(1000, "pubads.doubleclick.net"),
      rec(1010, "ssl.google-analytics.com"),
  };
  const auto classes = attribute(table_, recs);
  for (const EndpointClass& c : classes) EXPECT_EQ(c.app, kUnknownApp);
}

TEST_F(AppIdTest, EmptyStream) {
  const auto classes = attribute(table_, {});
  EXPECT_TRUE(classes.empty());
}

}  // namespace
}  // namespace wearscope::core
