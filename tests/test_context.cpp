// Unit tests for the shared AnalysisContext indexing.  ContextIndex checks
// the parallel user index against one sequential scan at several thread
// counts.
#include "core/context.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/analysis_mobility.h"
#include "core/streaming_activity.h"
#include "live/engine.h"
#include "simnet/simulator.h"
#include "trace/anonymize.h"
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
  EXPECT_EQ(owner.wearable_rows.size(), 2u);
  EXPECT_EQ(owner.phone_rows.size(), 1u);
  EXPECT_EQ(owner.mme_rows.size(), 2u);
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
  trace::TraceStore store = micro_store();
  // Users 10, 11 and 12 have records all before, across and all after the
  // window's start (day 14) in each of their three row spans.
  const std::vector<std::pair<trace::UserId, std::vector<int>>> days = {
      {10, {2, 5, 13}}, {11, {6, 13, 14, 20}}, {12, {14, 15, 27}}};
  for (const auto& [user, user_days] : days) {
    for (const int d : user_days) {
      const util::SimTime t = util::day_start(d) + 600;
      trace::ProxyRecord r;
      r.timestamp = t;
      r.user_id = user;
      r.tac = kWearTac;
      testing::set_strings(r, store, "api.weather.com");
      store.proxy.push_back(r);
      r.timestamp = t + 1;
      r.tac = kPhoneTac;
      store.proxy.push_back(r);
      store.mme.push_back(
          {t + 2, user, kWearTac, trace::MmeEvent::kAttach, 1});
    }
  }
  store.sort_by_time();
  AnalysisOptions o = micro_options();
  o.detailed_start_day = 14;
  const AnalysisContext ctx(store, o);
  EXPECT_EQ(ctx.detailed_start(), util::day_start(14));
  EXPECT_FALSE(ctx.in_detailed_window(util::day_start(13)));
  EXPECT_TRUE(ctx.in_detailed_window(util::day_start(14)));
  EXPECT_EQ(ctx.detailed_weeks(), 2);

  // The suffix equals a linear filter of the rows and ends where they end.
  const auto expect_suffix = [&ctx](const auto& log,
                                    std::span<const std::uint32_t> rows,
                                    std::size_t want_size) {
    std::vector<std::uint32_t> want;
    for (const std::uint32_t row : rows)
      if (ctx.in_detailed_window(log[row].timestamp)) want.push_back(row);
    const std::span<const std::uint32_t> got = ctx.detailed_suffix(log, rows);
    EXPECT_TRUE(std::ranges::equal(got, want));
    EXPECT_EQ(got.size(), want_size);
    EXPECT_EQ(got.data() + got.size(), rows.data() + rows.size());
  };
  for (const auto& [user, user_days] : days) {
    SCOPED_TRACE(user);
    const UserView& u = *ctx.find_user(user);
    ASSERT_EQ(u.wearable_rows.size(), user_days.size());
    ASSERT_EQ(u.phone_rows.size(), user_days.size());
    ASSERT_EQ(u.mme_rows.size(), user_days.size());
    const auto inside = static_cast<std::size_t>(std::ranges::count_if(
        user_days, [](int d) { return d >= 14; }));
    expect_suffix(store.proxy, u.wearable_rows, inside);
    expect_suffix(store.proxy, u.phone_rows, inside);
    expect_suffix(store.mme, u.mme_rows, inside);
  }
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

// ---- ContextIndex: the user index against one sequential scan -----------

/// The user index by its definition: one sequential scan of the proxy log
/// then the MME log, users in order of discovery.
struct ScannedUser {
  trace::UserId user_id = 0;
  bool has_wearable = false;
  std::vector<std::uint32_t> wearable_rows;
  std::vector<std::uint32_t> phone_rows;
  std::vector<std::uint32_t> mme_rows;
};

std::vector<ScannedUser> scan_users(const trace::TraceStore& store,
                                    const DeviceClassifier& devices) {
  std::vector<ScannedUser> users;
  std::unordered_map<trace::UserId, std::size_t> index;
  const auto user = [&](trace::UserId id) -> ScannedUser& {
    const auto [it, inserted] = index.try_emplace(id, users.size());
    if (inserted) users.emplace_back().user_id = id;
    return users[it->second];
  };
  for (std::size_t i = 0; i < store.proxy.size(); ++i) {
    const trace::ProxyRecord& r = store.proxy[i];
    ScannedUser& u = user(r.user_id);
    if (devices.is_wearable(r.tac)) {
      u.has_wearable = true;
      u.wearable_rows.push_back(static_cast<std::uint32_t>(i));
    } else {
      u.phone_rows.push_back(static_cast<std::uint32_t>(i));
    }
  }
  for (std::size_t j = 0; j < store.mme.size(); ++j) {
    const trace::MmeRecord& r = store.mme[j];
    ScannedUser& u = user(r.user_id);
    u.mme_rows.push_back(static_cast<std::uint32_t>(j));
    if (devices.is_wearable(r.tac)) u.has_wearable = true;
  }
  return users;
}

void expect_index_matches_scan(const trace::TraceStore& store,
                               AnalysisOptions options) {
  const DeviceClassifier devices(store.devices);
  const std::vector<ScannedUser> want = scan_users(store, devices);
  for (const int threads : {1, 2, 3, 4, 8}) {
    options.threads = threads;
    const AnalysisContext ctx(store, options);
    ASSERT_EQ(ctx.users().size(), want.size()) << threads << " threads";
    std::size_t wearable = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const UserView& got = ctx.users()[i];
      const ScannedUser& w = want[i];
      ASSERT_EQ(got.user_id, w.user_id)
          << "user order, position " << i << ", " << threads << " threads";
      EXPECT_EQ(got.has_wearable, w.has_wearable) << w.user_id;
      EXPECT_TRUE(std::ranges::equal(got.wearable_rows, w.wearable_rows))
          << w.user_id;
      EXPECT_TRUE(std::ranges::equal(got.phone_rows, w.phone_rows))
          << w.user_id;
      EXPECT_TRUE(std::ranges::equal(got.mme_rows, w.mme_rows)) << w.user_id;
      EXPECT_EQ(ctx.find_user(w.user_id), &got);
      if (w.has_wearable) {
        ASSERT_LT(wearable, ctx.wearable_users().size());
        EXPECT_EQ(ctx.wearable_users()[wearable++], &got);
      }
    }
    EXPECT_EQ(wearable, ctx.wearable_users().size());
    EXPECT_EQ(ctx.other_users().size(), want.size() - wearable);
  }
}

/// A sparse 64-bit user id (the shape anonymized ids take).
trace::UserId sparse_id(std::uint64_t k) {
  return 0xF000000000000000ull ^ (k * 0x9E3779B97F4A7C15ull);
}

TEST(ContextIndex, SparseIdsAndEveryKindOfUserMatchTheSequentialScan) {
  trace::TraceStore s = micro_store();
  s.proxy.clear();
  s.mme.clear();
  // Users 0-11 transact; user k's kind is k % 4: 0 wearable + phone,
  // 1 phone only, 2 wearable only, 3 wearable in MME only.  Users 12-15
  // appear only in MME, 12 first (before any proxy user's MME row) and
  // 15 with a wearable TAC.
  for (int step = 0; step < 240; ++step) {
    const std::uint64_t k = static_cast<std::uint64_t>(step * 7 % 12);
    trace::ProxyRecord r;
    r.timestamp = 1000 + step;
    r.user_id = sparse_id(k);
    const bool wearable_kind = k % 4 == 2 || (k % 4 == 0 && step % 3 == 0);
    r.tac = wearable_kind ? kWearTac : kPhoneTac;
    testing::set_strings(r, s, step % 3 == 0 ? "api.weather.com"
                                              : "graph.facebook.com");
    r.bytes_down = 100;
    s.proxy.push_back(r);
  }
  for (int step = 0; step < 90; ++step) {
    const std::uint64_t k = static_cast<std::uint64_t>(
        step == 0 ? 12 : 15 - step % 16);
    const bool wearable = k == 15 || (k < 12 && k % 4 != 1);
    s.mme.push_back({900 + step, sparse_id(k), wearable ? kWearTac : kPhoneTac,
                     trace::MmeEvent::kAttach, 1});
  }
  s.sort_by_time();
  expect_index_matches_scan(s, micro_options());

  const AnalysisContext ctx(s, micro_options());
  ASSERT_EQ(ctx.users().size(), 16u);
  // MME-only users follow every proxy user, in MME discovery order.
  EXPECT_EQ(ctx.users()[12].user_id, sparse_id(12));
  for (std::size_t i = 12; i < 16; ++i) {
    EXPECT_TRUE(ctx.users()[i].wearable_rows.empty());
    EXPECT_TRUE(ctx.users()[i].phone_rows.empty());
    EXPECT_FALSE(ctx.users()[i].mme_rows.empty());
  }
  EXPECT_TRUE(ctx.find_user(sparse_id(15))->has_wearable);
  EXPECT_FALSE(ctx.find_user(sparse_id(13))->has_wearable);
  const UserView& phone_only = *ctx.find_user(sparse_id(1));
  EXPECT_TRUE(phone_only.wearable_rows.empty());
  EXPECT_FALSE(phone_only.has_wearable);
  const UserView& wearable_only = *ctx.find_user(sparse_id(2));
  EXPECT_TRUE(wearable_only.phone_rows.empty());
  EXPECT_EQ(wearable_only.wearable_rows.size(), 20u);
  const UserView& mme_wearable = *ctx.find_user(sparse_id(3));
  EXPECT_TRUE(mme_wearable.wearable_rows.empty());
  EXPECT_TRUE(mme_wearable.has_wearable);
}

TEST(ContextIndex, EmptyLogs) {
  trace::TraceStore s = micro_store();
  s.proxy.clear();
  s.sort_by_time();
  expect_index_matches_scan(s, micro_options());
  s.mme.clear();
  s.sort_by_time();
  expect_index_matches_scan(s, micro_options());
  const AnalysisContext ctx(s, micro_options());
  EXPECT_TRUE(ctx.users().empty());
}

TEST(ContextIndex, AnonymizedSimulatedCaptureMatchesTheSequentialScan) {
  simnet::SimConfig cfg = simnet::SimConfig::small();
  cfg.seed = 5;
  const simnet::SimResult sim = simnet::Simulator(cfg).run();
  trace::TraceStore store = sim.store;
  trace::AnonymizePolicy policy;
  policy.key = 0xC5A1ull;
  trace::anonymize(store, policy);
  store.sort_by_time();
  AnalysisOptions o;
  o.observation_days = sim.observation_days;
  o.detailed_start_day = sim.detailed_start_day;
  o.long_tail_apps = sim.config.long_tail_apps;
  expect_index_matches_scan(store, o);
}

}  // namespace
}  // namespace wearscope::core
