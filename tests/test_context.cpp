// Unit tests for the shared AnalysisContext indexing.
#include "core/context.h"

#include <gtest/gtest.h>

#include <initializer_list>

#include "core/analysis_mobility.h"
#include "core/streaming_activity.h"
#include "live/engine.h"
#include "util/error.h"
#include "test_support.h"

namespace wearscope::core {
namespace {

constexpr trace::Tac kWearTac = 35254208;   // Gear S3 frontier LTE
constexpr trace::Tac kPhoneTac = 35332008;  // iPhone 7

trace::TraceStore micro_store() {
  trace::TraceStore s;
  s.devices = {
      {kWearTac, "Gear S3 frontier LTE", "Samsung", "Tizen"},
      {kPhoneTac, "iPhone 7", "Apple", "iOS"},
  };
  s.sectors = {{1, {40.0, -3.0}}, {2, {40.1, -3.0}}};

  const auto proxy = [&s](util::SimTime t, trace::UserId u, trace::Tac tac,
                          const char* host) {
    trace::ProxyRecord r;
    r.timestamp = t;
    r.user_id = u;
    r.tac = tac;
    testing::set_strings(r, s, host);
    r.bytes_down = 1000;
    return r;
  };
  // User 1: wearable owner with wearable + phone traffic.
  s.proxy.push_back(proxy(100, 1, kWearTac, "api.weather.com"));
  s.proxy.push_back(proxy(200, 1, kWearTac, "api.weather.com"));
  s.proxy.push_back(proxy(300, 1, kPhoneTac, "graph.facebook.com"));
  // User 2: phone only.
  s.proxy.push_back(proxy(150, 2, kPhoneTac, "api.twitter.com"));

  s.mme = {
      {50, 1, kWearTac, trace::MmeEvent::kAttach, 1},
      {250, 1, kPhoneTac, trace::MmeEvent::kHandover, 2},
      {60, 2, kPhoneTac, trace::MmeEvent::kAttach, 1},
  };
  s.sort_by_time();
  return s;
}

AnalysisOptions micro_options() {
  AnalysisOptions o;
  o.observation_days = 28;
  o.detailed_start_day = 0;
  o.long_tail_apps = 10;
  return o;
}

TEST(Context, GroupsUsersAndClassifiesWearables) {
  const trace::TraceStore store = micro_store();
  const AnalysisContext ctx(store, micro_options());
  EXPECT_EQ(ctx.users().size(), 2u);
  ASSERT_EQ(ctx.wearable_users().size(), 1u);
  ASSERT_EQ(ctx.other_users().size(), 1u);
  const UserView& owner = *ctx.wearable_users()[0];
  EXPECT_EQ(owner.user_id, 1u);
  EXPECT_EQ(owner.wearable_txns.size(), 2u);
  EXPECT_EQ(owner.phone_txns.size(), 1u);
  EXPECT_EQ(owner.mme.size(), 2u);
  EXPECT_EQ(ctx.other_users()[0]->user_id, 2u);
}

TEST(Context, AttributesAndSessionizesWearableTraffic) {
  const trace::TraceStore store = micro_store();
  const AnalysisContext ctx(store, micro_options());
  const UserView& owner = *ctx.wearable_users()[0];
  ASSERT_EQ(owner.wearable_classes.size(), 2u);
  EXPECT_EQ(ctx.signatures().app_name(owner.wearable_classes[0].app),
            "Weather");
  // Two transactions 100 s apart -> two usages under the 60 s rule.
  EXPECT_EQ(owner.usages.size(), 2u);
}

TEST(Context, FindUser) {
  const trace::TraceStore store = micro_store();
  const AnalysisContext ctx(store, micro_options());
  ASSERT_NE(ctx.find_user(1), nullptr);
  EXPECT_EQ(ctx.find_user(1)->user_id, 1u);
  EXPECT_EQ(ctx.find_user(99), nullptr);
}

/// micro_store() plus user 1 wearable transactions at `times`.
trace::TraceStore store_with_txns(std::initializer_list<util::SimTime> times) {
  trace::TraceStore s = micro_store();
  for (const util::SimTime t : times) {
    trace::ProxyRecord r;
    r.timestamp = t;
    r.user_id = 1;
    r.tac = kWearTac;
    testing::set_strings(r, s, "api.weather.com");
    r.bytes_down = 1000;
    s.proxy.push_back(r);
  }
  s.sort_by_time();
  return s;
}

// User 1's MME events: sector 1 at t=50, sector 2 at t=250; the store's
// own wearable transactions (t=100, 200) both fall in sector 1.
bool single_location(const trace::TraceStore& store) {
  const AnalysisContext ctx(store, micro_options());
  return user_txn_activity(ctx, *ctx.wearable_users()[0]).single_location;
}

TEST(MobilityWalk, UsesLatestEventAtOrBefore) {
  // Before the first event: placed at the first event's sector.
  EXPECT_TRUE(single_location(store_with_txns({49})));
  EXPECT_TRUE(single_location(store_with_txns({50})));
  EXPECT_TRUE(single_location(store_with_txns({249})));
  // At an event's own second: that event's sector.
  EXPECT_FALSE(single_location(store_with_txns({250})));
  // After the last event: the last event's sector.
  EXPECT_FALSE(single_location(store_with_txns({9999})));

  const trace::TraceStore store = store_with_txns({49, 3700});
  const AnalysisContext ctx(store, micro_options());
  const TxnActivity a = user_txn_activity(ctx, *ctx.wearable_users()[0]);
  EXPECT_EQ(a.txns, 4u);
  EXPECT_EQ(a.active_hours, 2u);  // hour 0 (49, 100, 200) and hour 1
  EXPECT_FALSE(a.single_location);  // 3700 is after the sector-2 event
  // The figure counts the owner, its one transacting wearable user.
  EXPECT_DOUBLE_EQ(analyze_mobility(ctx).single_location_fraction, 0.0);
  const trace::TraceStore early = store_with_txns({49});
  EXPECT_DOUBLE_EQ(
      analyze_mobility(AnalysisContext(early, micro_options()))
          .single_location_fraction,
      1.0);
}

TEST(MobilityWalk, WithoutMmeIsSingleLocation) {
  trace::TraceStore store = micro_store();
  store.mme.clear();
  const AnalysisContext ctx(store, micro_options());
  const TxnActivity a = user_txn_activity(ctx, *ctx.wearable_users()[0]);
  EXPECT_EQ(a.txns, 2u);
  EXPECT_TRUE(a.single_location);
  // Fig. 4 only takes users with MME in the detailed window, so the
  // owner never reaches the single-location count.
  EXPECT_DOUBLE_EQ(analyze_mobility(ctx).single_location_fraction, 0.0);
}

TEST(Context, DetailedWindowHelpers) {
  const trace::TraceStore store = micro_store();
  AnalysisOptions o = micro_options();
  o.detailed_start_day = 14;
  const AnalysisContext ctx(store, o);
  EXPECT_EQ(ctx.detailed_start(), util::day_start(14));
  EXPECT_FALSE(ctx.in_detailed_window(util::day_start(13)));
  EXPECT_TRUE(ctx.in_detailed_window(util::day_start(14)));
  EXPECT_EQ(ctx.detailed_weeks(), 2);
}

TEST(Context, RequiresSortedStore) {
  trace::TraceStore store = micro_store();
  std::swap(store.proxy.front(), store.proxy.back());
  EXPECT_THROW(AnalysisContext(store, micro_options()), util::ConfigError);
}

TEST(Context, RejectsBadWindow) {
  const trace::TraceStore store = micro_store();
  AnalysisOptions o = micro_options();
  o.detailed_start_day = o.observation_days;
  EXPECT_THROW(AnalysisContext(store, o), util::ConfigError);
}

// The per-week and per-day normalizations divide by the detailed window's
// whole weeks: under 7 days that is 0, and Fig. 3a came out as inf/inf.
// The batch context, the streaming counter and the live engine share one
// window check, so all three refuse it and all three accept a full week.
TEST(Context, RejectsDetailedWindowUnderOneWeek) {
  const trace::TraceStore store = micro_store();
  const DeviceClassifier devices(store.devices);
  AnalysisOptions o = micro_options();
  o.observation_days = 30;
  live::LiveOptions live_opt;
  live_opt.shards = 1;
  live_opt.observation_days = 30;
  for (const int start : {24, 25, 29}) {
    o.detailed_start_day = start;
    live_opt.detailed_start_day = start;
    EXPECT_THROW(AnalysisContext(store, o), util::ConfigError) << start;
    EXPECT_THROW(StreamingActivity(devices, 30, start), util::ConfigError)
        << start;
    EXPECT_THROW(live::LiveEngine(store.devices, live_opt), util::ConfigError)
        << start;
  }
  o.detailed_start_day = 23;
  live_opt.detailed_start_day = 23;
  const AnalysisContext ctx(store, o);
  EXPECT_EQ(ctx.detailed_weeks(), 1);
  EXPECT_NO_THROW(StreamingActivity(devices, 30, 23));
  live::LiveEngine engine(store.devices, live_opt);
  (void)engine.stop();
}

TEST(Context, SignatureCoverageOptionPropagates) {
  const trace::TraceStore store = micro_store();
  AnalysisOptions o = micro_options();
  o.signature_coverage = 0.0;
  const AnalysisContext ctx(store, o);
  EXPECT_EQ(ctx.signatures().rule_count(), 0u);
  // With no rules, all wearable traffic is unknown.
  const UserView& owner = *ctx.wearable_users()[0];
  for (const EndpointClass& c : owner.wearable_classes) {
    EXPECT_EQ(c.app, kUnknownApp);
  }
}

}  // namespace
}  // namespace wearscope::core
