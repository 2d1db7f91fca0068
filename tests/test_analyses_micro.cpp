// Exact-value tests of every analysis on tiny hand-crafted traces.
//
// Each test constructs a micro TraceStore where the correct answer can be
// computed by hand, then checks the analysis reproduces it exactly — this
// pins down metric *definitions*, while the integration tests pin down the
// paper-level calibration.
#include <gtest/gtest.h>

#include "core/analysis_activity.h"
#include "core/analysis_adoption.h"
#include "core/analysis_apps.h"
#include "core/analysis_categories.h"
#include "core/analysis_comparison.h"
#include "core/analysis_diurnal.h"
#include "core/analysis_mobility.h"
#include "core/analysis_thirdparty.h"
#include "core/analysis_throughdevice.h"
#include "core/analysis_usage.h"
#include "core/context.h"
#include "core/streaming.h"
#include "core/streaming_activity.h"
#include "util/geo.h"
#include "test_support.h"

namespace wearscope::core {
namespace {

constexpr trace::Tac kWearTac = 35254208;   // Gear S3 frontier LTE
constexpr trace::Tac kPhoneTac = 35332008;  // iPhone 7

/// Builder for micro traces.
class MicroTrace {
 public:
  MicroTrace() {
    store_.devices = {
        {kWearTac, "Gear S3 frontier LTE", "Samsung", "Tizen"},
        {kPhoneTac, "iPhone 7", "Apple", "iOS"},
    };
    // Sector 1 at a reference point; 2 and 3 exactly 10 km / 50 km east.
    const util::GeoPoint base{40.0, -3.0};
    store_.sectors = {
        {1, base},
        {2, util::destination(base, 90.0, 10.0)},
        {3, util::destination(base, 90.0, 50.0)},
    };
  }

  void proxy(int day, int hour, int minute, int second, trace::UserId user,
             trace::Tac tac, const char* host, std::uint64_t bytes) {
    trace::ProxyRecord r;
    r.timestamp = util::day_start(day) + hour * 3600 + minute * 60 + second;
    r.user_id = user;
    r.tac = tac;
    testing::set_strings(r, store_, host);
    r.bytes_up = bytes / 10;
    r.bytes_down = bytes - bytes / 10;
    store_.proxy.push_back(std::move(r));
  }

  void mme(int day, int hour, trace::UserId user, trace::Tac tac,
           trace::MmeEvent event, trace::SectorId sector) {
    store_.mme.push_back(
        {util::day_start(day) + hour * 3600, user, tac, event, sector});
  }

  /// Sorts the store and builds a context over it.  The returned context
  /// points into this MicroTrace, which must stay alive.
  AnalysisContext context(int observation_days, int detailed_start_day) {
    store_.sort_by_time();
    AnalysisOptions o;
    o.observation_days = observation_days;
    o.detailed_start_day = detailed_start_day;
    o.long_tail_apps = 10;
    return AnalysisContext(store_, o);
  }

  trace::TraceStore store_;
};

// ---- Fig. 2: adoption ------------------------------------------------------

TEST(MicroAdoption, RetentionAndTransactingFraction) {
  MicroTrace t;
  // user 1: registered all 28 days; user 2: first two weeks only (churn);
  // user 3: last week only (new adopter); user 4: all days + transacts.
  for (int d = 0; d < 28; ++d) {
    t.mme(d, 8, 1, kWearTac, trace::MmeEvent::kAttach, 1);
    if (d < 14) t.mme(d, 8, 2, kWearTac, trace::MmeEvent::kAttach, 1);
    if (d >= 21) t.mme(d, 8, 3, kWearTac, trace::MmeEvent::kAttach, 1);
    t.mme(d, 9, 4, kWearTac, trace::MmeEvent::kAttach, 1);
  }
  t.proxy(5, 10, 0, 0, 4, kWearTac, "api.weather.com", 1000);
  const AnalysisContext ctx = t.context(28, 14);
  const AdoptionResult r = analyze_adoption(ctx);

  EXPECT_EQ(r.ever_registered, 4u);
  EXPECT_EQ(r.ever_transacted, 1u);
  EXPECT_DOUBLE_EQ(r.ever_transacting_fraction, 0.25);
  // Daily counts: 3 for days 0-13, 2 for 14-20, 3 for 21-27.
  ASSERT_EQ(r.daily_registered_norm.size(), 28u);
  EXPECT_DOUBLE_EQ(r.daily_registered_norm[0], 1.0);
  EXPECT_DOUBLE_EQ(r.daily_registered_norm[15], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(r.daily_registered_norm[27], 1.0);
  EXPECT_DOUBLE_EQ(r.total_growth, 0.0);  // first wk avg == last wk avg
  // First week {1,2,4}, last week {1,3,4}: union 4, both 2.
  EXPECT_DOUBLE_EQ(r.still_active_share, 0.5);
  EXPECT_DOUBLE_EQ(r.gone_share, 0.25);
  EXPECT_DOUBLE_EQ(r.new_share, 0.25);
  EXPECT_NEAR(r.churned_of_initial, 1.0 / 3.0, 1e-12);
}

TEST(MicroAdoption, EmptyStore) {
  MicroTrace t;
  const AnalysisContext ctx = t.context(28, 14);
  const AdoptionResult r = analyze_adoption(ctx);
  EXPECT_EQ(r.ever_registered, 0u);
  EXPECT_DOUBLE_EQ(r.ever_transacting_fraction, 0.0);
  EXPECT_DOUBLE_EQ(r.still_active_share, 0.0);
}

// A 10-day window: the first week (days 0-6) and the last week (days 3-9)
// overlap, so a user seen only on days 3-6 is in both.  Checked through the
// batch kernel's dense-stamp fill (compact ids) and sort+unique fill (ids
// 2^40 apart) and through the streaming counter, which all finish in
// AdoptionTally::finalize().
TEST(MicroAdoption, OverlappingFirstAndLastWeeks) {
  for (const trace::UserId stride :
       {trace::UserId{1}, trace::UserId{1} << 40}) {
    MicroTrace t;
    const auto reg = [&](int day, trace::UserId user) {
      t.mme(day, 8, stride * user, kWearTac, trace::MmeEvent::kAttach, 1);
    };
    for (int d = 0; d < 10; ++d) reg(d, 1);  // every day
    reg(1, 2);                               // first week only: gone
    reg(8, 3);                               // last week only: new
    reg(7, 6);                               // last week only: new
    reg(4, 4);                               // overlap day: both weeks
    reg(2, 5);                               // first-only day ...
    reg(9, 5);                               // ... and last-only day: both
    t.proxy(3, 10, 0, 0, stride, kWearTac, "api.weather.com", 1000);
    const AnalysisContext ctx = t.context(10, 3);

    StreamingAdoption streaming(ctx.devices(), 10);
    for (const trace::MmeRecord& r : ctx.store().mme) streaming.on_mme(r);
    for (const trace::ProxyRecord& r : ctx.store().proxy) {
      streaming.on_proxy(r);
    }
    for (const AdoptionResult& r :
         {analyze_adoption(ctx), streaming.finalize()}) {
      SCOPED_TRACE(stride == 1 ? "dense ids" : "sparse ids");
      EXPECT_EQ(r.ever_registered, 6u);
      EXPECT_EQ(r.ever_transacted, 1u);
      EXPECT_DOUBLE_EQ(r.ever_transacting_fraction, 1.0 / 6.0);
      // Daily counts 1,2,2,1,2,1,1,2,2,2; normalized by the last day's 2.
      const std::vector<double> norm = {0.5, 1.0, 1.0, 0.5, 1.0,
                                        0.5, 0.5, 1.0, 1.0, 1.0};
      EXPECT_EQ(r.daily_registered_norm, norm);
      // First-week mean 10/7, last-week (days 3-9) mean 11/7.
      EXPECT_NEAR(r.total_growth, 0.1, 1e-12);
      EXPECT_NEAR(r.monthly_growth, 0.1 / (10.0 / 30.4), 1e-12);
      // First week {1,2,4,5}, last week {1,3,4,5,6}: both 3, union 6.
      EXPECT_DOUBLE_EQ(r.still_active_share, 0.5);
      EXPECT_DOUBLE_EQ(r.gone_share, 1.0 / 6.0);
      EXPECT_DOUBLE_EQ(r.new_share, 2.0 / 6.0);
      EXPECT_DOUBLE_EQ(r.churned_of_initial, 0.25);
    }
  }
}

// ---- Fig. 3a: diurnal -------------------------------------------------------

TEST(MicroDiurnal, HourProfilesAndWeekendSplit) {
  MicroTrace t;
  // Window: days 14-27 (2 weeks). Day 17 is a Monday (weekday), day 15 a
  // Saturday (weekend); day 0 of the window is a Friday.
  ASSERT_EQ(util::weekday_of_day(17), util::Weekday::kMonday);
  ASSERT_TRUE(util::is_weekend_day(15));
  // Weekday: user 1, two txns at 08h (1 KB each) on day 17.
  t.proxy(17, 8, 0, 0, 1, kWearTac, "api.weather.com", 1000);
  t.proxy(17, 8, 10, 0, 1, kWearTac, "api.weather.com", 1000);
  // Weekend: user 2, one txn at 20h (3 KB) on day 15.
  t.proxy(15, 20, 0, 0, 2, kWearTac, "api.weather.com", 3000);
  const AnalysisContext ctx = t.context(28, 14);
  const DiurnalResult r = analyze_diurnal(ctx);

  // Transactions: weekly total = 3/2 weeks = 1.5.
  // Weekday 08h: 2 txns over 10 weekdays -> 0.2/day; share = 0.2/1.5.
  EXPECT_NEAR(r.txns_weekday[8], 0.2 / 1.5, 1e-9);
  EXPECT_DOUBLE_EQ(r.txns_weekday[20], 0.0);
  // Weekend 20h: 1 txn over 4 weekend days -> 0.25/day; share = 0.25/1.5.
  EXPECT_NEAR(r.txns_weekend[20], 0.25 / 1.5, 1e-9);
  EXPECT_DOUBLE_EQ(r.txns_weekend[8], 0.0);

  // Data: weekly total = 5 KB / 2 weeks = 2.5 KB.
  EXPECT_NEAR(r.data_weekday[8], (2000.0 / 10.0) / 2500.0, 1e-9);
  EXPECT_NEAR(r.data_weekend[20], (3000.0 / 4.0) / 2500.0, 1e-9);

  // Active users: 2 user-days over 14 days; 2 user-weeks over 2 weeks
  // -> daily_active_fraction = (2/14) / (2/2).
  EXPECT_NEAR(r.daily_active_fraction, (2.0 / 14.0) / 1.0, 1e-9);

  // Day-of-week user-day spread: Mon has 1, Sat has 1, others 0 ->
  // min is 0, spread stays 0 (undefined on sparse micro traces).
  EXPECT_DOUBLE_EQ(r.day_of_week_spread, 0.0);
}

// ---- Fig. 3b/3c/3d: activity ----------------------------------------------

TEST(MicroActivity, DaysHoursAndTransactionSizes) {
  MicroTrace t;
  // User A (wearable): day 15 hours 10 (2 txns) and 11 (1 txn);
  //                    day 20 hour 9 (1 txn). Window: days 14-27 (2 weeks).
  t.proxy(15, 10, 0, 0, 1, kWearTac, "api.weather.com", 1000);
  t.proxy(15, 10, 0, 30, 1, kWearTac, "api.weather.com", 2000);
  t.proxy(15, 11, 5, 0, 1, kWearTac, "api.weather.com", 3000);
  t.proxy(20, 9, 0, 0, 1, kWearTac, "api.weather.com", 6000);
  // User B: day 15 hours 8,9,10 with 2 txns each.
  for (const int h : {8, 9, 10}) {
    t.proxy(15, h, 0, 0, 2, kWearTac, "api.accuweather.com", 1000);
    t.proxy(15, h, 0, 20, 2, kWearTac, "api.accuweather.com", 1000);
  }
  const AnalysisContext ctx = t.context(28, 14);
  const ActivityResult r = analyze_activity(ctx);

  // A: 2 active days / 2 weeks = 1.0; B: 1 day / 2 weeks = 0.5.
  ASSERT_EQ(r.active_days_per_week.size(), 2u);
  EXPECT_DOUBLE_EQ(r.mean_active_days, 0.75);
  // A: (2 hours + 1 hour)/2 days = 1.5; B: 3 hours.
  EXPECT_DOUBLE_EQ(r.mean_active_hours, 2.25);
  EXPECT_DOUBLE_EQ(r.frac_over_10h, 0.0);
  EXPECT_DOUBLE_EQ(r.frac_under_5h, 1.0);

  // Transaction sizes: {1,2,3,6}KB from A and 6x1KB from B.
  ASSERT_EQ(r.txn_size_bytes.size(), 10u);
  EXPECT_DOUBLE_EQ(r.mean_txn_bytes, 1800.0);
  EXPECT_DOUBLE_EQ(r.frac_txn_under_10kb, 1.0);

  // Hourly txn counts: A {2,1,1}, B {2,2,2}.
  ASSERT_EQ(r.hourly_txns_per_user.size(), 6u);
  EXPECT_DOUBLE_EQ(r.hourly_txns_per_user.quantile(1.0), 2.0);

  // Fig. 3d inputs: A (1.5 h, 4/3 txns/h), B (3 h, 2 txns/h) -> positive.
  EXPECT_NEAR(r.correlation, 1.0, 1e-9);
}

TEST(MicroActivity, IgnoresTrafficOutsideDetailedWindow) {
  MicroTrace t;
  t.proxy(2, 10, 0, 0, 1, kWearTac, "api.weather.com", 1000);  // pre-window
  t.proxy(15, 10, 0, 0, 1, kWearTac, "api.weather.com", 2000);
  const AnalysisContext ctx = t.context(28, 14);
  const ActivityResult r = analyze_activity(ctx);
  EXPECT_EQ(r.txn_size_bytes.size(), 1u);
  EXPECT_DOUBLE_EQ(r.mean_txn_bytes, 2000.0);
}

// User A's slots straddle the boundary between the two detailed weeks
// (day 20 late evening, day 21 just after midnight and late evening): the
// slot runs must split at midnight, not merge by hour of day, in the batch
// kernel and the streaming counter alike.
TEST(MicroActivity, SlotsAcrossWeekBoundary) {
  MicroTrace t;
  t.proxy(14, 8, 0, 0, 2, kWearTac, "api.weather.com", 500);  // B
  t.proxy(14, 9, 0, 0, 2, kWearTac, "api.weather.com", 500);  // B
  t.proxy(20, 23, 10, 0, 1, kWearTac, "api.weather.com", 1000);
  t.proxy(20, 23, 50, 0, 1, kWearTac, "api.weather.com", 2000);
  t.proxy(21, 0, 5, 0, 1, kWearTac, "api.weather.com", 4000);
  t.proxy(21, 23, 30, 0, 1, kWearTac, "api.weather.com", 8000);
  const AnalysisContext ctx = t.context(28, 14);

  StreamingActivity streaming(ctx.devices(), 28, 14);
  for (std::size_t i = 0; i < ctx.store().proxy.size(); ++i) {
    streaming.on_proxy(ctx.store().proxy[i], i);
  }
  for (const ActivityResult& r :
       {analyze_activity(ctx), streaming.finalize()}) {
    // A: 2 days / 2 weeks = 1.0, slots (20,23) (21,0) (21,23) -> 3 hours
    // over 2 days = 1.5 h/day, 4 txns over 3 hours.  B: 1 day = 0.5/week,
    // 2 hours, 1 txn/hour.
    EXPECT_EQ(r.active_days_per_week.sorted(), (std::vector<double>{0.5, 1.0}));
    EXPECT_EQ(r.active_hours_per_day.sorted(), (std::vector<double>{1.5, 2.0}));
    EXPECT_EQ(r.hourly_txns_per_user.sorted(),
              (std::vector<double>{1.0, 1.0, 1.0, 1.0, 2.0}));
    EXPECT_EQ(r.hourly_bytes_per_user.sorted(),
              (std::vector<double>{500.0, 500.0, 3000.0, 4000.0, 8000.0}));
    EXPECT_DOUBLE_EQ(r.mean_txn_bytes, 16000.0 / 6.0);
    // Fig. 3d: (1.5 h, 4/3 txns/h) and (2 h, 1 txn/h).
    EXPECT_NEAR(r.correlation, -1.0, 1e-12);
  }
}

// ---- Fig. 4a/4b: comparison ------------------------------------------------

TEST(MicroComparison, RatiosAndShares) {
  MicroTrace t;
  // Owner (user 1): 2 wearable txns of 500 B + 2 phone txns of 49500 B.
  t.proxy(1, 10, 0, 0, 1, kWearTac, "api.weather.com", 500);
  t.proxy(2, 10, 0, 0, 1, kWearTac, "api.weather.com", 500);
  t.proxy(3, 10, 0, 0, 1, kPhoneTac, "graph.facebook.com", 49500);
  t.proxy(4, 10, 0, 0, 1, kPhoneTac, "graph.facebook.com", 49500);
  // Other (user 2): 1 phone txn of 50000 B.
  t.proxy(1, 12, 0, 0, 2, kPhoneTac, "api.twitter.com", 50000);
  const AnalysisContext ctx = t.context(14, 0);
  const ComparisonResult r = analyze_comparison(ctx);

  EXPECT_DOUBLE_EQ(r.data_ratio, 2.0);   // 100000 vs 50000
  EXPECT_DOUBLE_EQ(r.txn_ratio, 4.0);    // 4 vs 1
  ASSERT_EQ(r.wearable_share.size(), 1u);
  EXPECT_DOUBLE_EQ(r.median_wearable_share, 0.01);
  EXPECT_DOUBLE_EQ(r.frac_share_over_3pct, 0.0);
  // Normalized by the max user: owner 1.0, other 0.5.
  EXPECT_DOUBLE_EQ(r.owner_daily_bytes_norm.quantile(1.0), 1.0);
  EXPECT_DOUBLE_EQ(r.other_daily_bytes_norm.quantile(1.0), 0.5);
}

// ---- Fig. 4c/4d: mobility ---------------------------------------------------

TEST(MicroMobility, DisplacementEntropySingleLocation) {
  MicroTrace t;
  // Owner (user 1): day 0 sectors 1 (08h) -> 2 (12h): 10 km; day 1 static.
  t.mme(0, 8, 1, kWearTac, trace::MmeEvent::kAttach, 1);
  t.mme(0, 12, 1, kWearTac, trace::MmeEvent::kHandover, 2);
  t.mme(1, 0, 1, kWearTac, trace::MmeEvent::kAttach, 1);
  // One wearable transaction at 13h on day 0: located at sector 2.
  t.proxy(0, 13, 0, 0, 1, kWearTac, "api.weather.com", 1000);
  // Control (user 2): static at sector 1 for two days.
  t.mme(0, 8, 2, kPhoneTac, trace::MmeEvent::kAttach, 1);
  t.mme(1, 8, 2, kPhoneTac, trace::MmeEvent::kAttach, 1);

  const AnalysisContext ctx = t.context(14, 0);
  const MobilityResult r = analyze_mobility(ctx);

  // Owner daily displacements: 10 km and 0 -> mean 5 km. Control: 0.
  EXPECT_NEAR(r.wearable_mean_km, 5.0, 0.01);
  EXPECT_NEAR(r.all_mean_km, 2.5, 0.01);
  EXPECT_NEAR(r.displacement_ratio, 2.0, 0.01);
  EXPECT_DOUBLE_EQ(r.frac_under_30km, 1.0);

  // Owner dwell: s1 4h+24h=28h, s2 12h -> H(0.7, 0.3) = 0.8813 bits.
  EXPECT_NEAR(r.wearable_entropy_bits, 0.8813, 0.001);
  EXPECT_NEAR(r.all_entropy_bits, 0.8813 / 2.0, 0.001);
  EXPECT_NEAR(r.entropy_ratio, 2.0, 0.01);

  // The single wearable transaction maps to exactly one sector.
  EXPECT_DOUBLE_EQ(r.single_location_fraction, 1.0);
}

TEST(MicroMobility, EntropyNormAblationHelper) {
  MicroTrace t;
  // Dwell-weighted vs visit-count entropy differ when dwell is skewed:
  // 23 h at sector 1, 1 h at sector 2, one event each.
  t.mme(0, 0, 1, kWearTac, trace::MmeEvent::kAttach, 1);
  t.mme(0, 23, 1, kWearTac, trace::MmeEvent::kHandover, 2);
  const AnalysisContext ctx = t.context(14, 0);
  const UserView& u = *ctx.wearable_users()[0];
  const double dwell = user_location_entropy(ctx, u, EntropyNorm::kDwellWeighted);
  const double visits = user_location_entropy(ctx, u, EntropyNorm::kVisitCount);
  // Dwell weights: the 23h/0h split means sector 2 never accumulates dwell
  // within the day -> entropy 0; visit counts are 1:1 -> 1 bit.
  EXPECT_NEAR(visits, 1.0, 1e-9);
  EXPECT_LT(dwell, visits);
}

// ---- Fig. 5/6/7/8: apps, categories, usage, third parties -------------------

class MicroApps : public ::testing::Test {
 protected:
  void SetUp() override {
    // User 1: Weather usage day 0 (3 txns + 1 attributed ad txn),
    //         WhatsApp usage day 1 (2 txns).
    t_.proxy(0, 10, 0, 0, 1, kWearTac, "api.weather.com", 1000);
    t_.proxy(0, 10, 0, 30, 1, kWearTac, "api.weather.com", 1000);
    t_.proxy(0, 10, 1, 0, 1, kWearTac, "dsx.weather.com", 1000);
    t_.proxy(0, 10, 1, 20, 1, kWearTac, "pubads.doubleclick.net", 500);
    t_.proxy(1, 20, 0, 0, 1, kWearTac, "e1.whatsapp.net", 10000);
    t_.proxy(1, 20, 0, 40, 1, kWearTac, "mmg.whatsapp.net", 10000);
    // User 2: one Weather txn day 0.
    t_.proxy(0, 9, 0, 0, 2, kWearTac, "api.weather.com", 1000);
    ctx_ = std::make_unique<AnalysisContext>(t_.context(7, 0));
  }

  MicroTrace t_;
  std::unique_ptr<AnalysisContext> ctx_;
};

TEST_F(MicroApps, AppSharesAndPerUserStats) {
  const AppPopularityResult r = analyze_apps(*ctx_);
  ASSERT_EQ(r.apps.size(), 2u);
  EXPECT_EQ(r.apps[0].name, "Weather");
  EXPECT_EQ(r.apps[1].name, "WhatsApp");
  // User-days: Weather 2 (u1d0, u2d0), WhatsApp 1 (u1d1).
  EXPECT_NEAR(r.apps[0].user_share_pct, 100.0 * 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(r.apps[1].user_share_pct, 100.0 / 3.0, 1e-9);
  // Txns: Weather 3 + 1 (attributed ad) + 1 = 5; WhatsApp 2.
  EXPECT_NEAR(r.apps[0].txn_share_pct, 100.0 * 5.0 / 7.0, 1e-9);
  // Every day ran exactly one app.
  EXPECT_DOUBLE_EQ(r.one_app_day_fraction, 1.0);
  EXPECT_DOUBLE_EQ(r.mean_apps_per_user, 1.5);
  EXPECT_DOUBLE_EQ(r.frac_users_under_20, 1.0);
  EXPECT_DOUBLE_EQ(r.unknown_traffic_fraction, 0.0);
}

TEST_F(MicroApps, CategoryShares) {
  const CategoryResult r = analyze_categories(*ctx_);
  // Weather category: 2 user-days; Communication: 1.
  ASSERT_FALSE(r.by_users.empty());
  EXPECT_EQ(r.by_users[0].category, appdb::Category::kWeather);
  EXPECT_NEAR(r.by_users[0].user_share_pct, 100.0 * 2.0 / 3.0, 1e-9);
  EXPECT_EQ(r.user_rank[static_cast<std::size_t>(appdb::Category::kWeather)],
            0u);
  EXPECT_EQ(
      r.user_rank[static_cast<std::size_t>(appdb::Category::kCommunication)],
      1u);
}

TEST_F(MicroApps, PerUsageStats) {
  const UsageResult r = analyze_usage(*ctx_);
  ASSERT_EQ(r.apps.size(), 2u);
  // WhatsApp: 1 usage, 2 txns, 20 KB -> tops data per usage.
  EXPECT_EQ(r.apps[0].name, "WhatsApp");
  EXPECT_DOUBLE_EQ(r.apps[0].mean_txns_per_usage, 2.0);
  EXPECT_DOUBLE_EQ(r.apps[0].mean_kb_per_usage, 20.0);
  // Weather: usages u1 (4 txns incl. the ad, 3.5 KB) and u2 (1 txn, 1 KB).
  EXPECT_EQ(r.apps[1].name, "Weather");
  EXPECT_DOUBLE_EQ(r.apps[1].mean_txns_per_usage, 2.5);
  EXPECT_DOUBLE_EQ(r.apps[1].mean_kb_per_usage, 2.25);
}

TEST_F(MicroApps, ThirdPartyShares) {
  const ThirdPartyResult r = analyze_thirdparty(*ctx_);
  const auto& app =
      r.classes[static_cast<std::size_t>(appdb::TransactionClass::kApplication)];
  const auto& ads =
      r.classes[static_cast<std::size_t>(appdb::TransactionClass::kAdvertising)];
  // Txns: 6 application, 1 advertising.
  EXPECT_NEAR(app.txn_share_pct, 100.0 * 6.0 / 7.0, 1e-9);
  EXPECT_NEAR(ads.txn_share_pct, 100.0 / 7.0, 1e-9);
  // Data: app 24 KB, ads 0.5 KB -> ratio 48.
  EXPECT_NEAR(r.app_over_thirdparty_data, 48.0, 1e-9);
  // Users: application {1,2}, advertising {1}.
  EXPECT_NEAR(app.user_share_pct, 100.0 * 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(ads.user_share_pct, 100.0 / 3.0, 1e-9);
}

// Two users whose ids differ only in bit 54 (anonymized ids span all 64
// bits) both run Weather on day 0; user 1 also runs WhatsApp that day.
// A (user << 10) ^ day key would fold them into one active user-day.
AnalysisContext top_bit_users(MicroTrace& t) {
  constexpr trace::UserId kHigh = trace::UserId{1} + (trace::UserId{1} << 54);
  t.proxy(0, 9, 0, 0, 1, kWearTac, "api.weather.com", 1000);
  t.proxy(0, 9, 0, 0, kHigh, kWearTac, "api.weather.com", 1000);
  t.proxy(0, 20, 0, 0, 1, kWearTac, "e1.whatsapp.net", 1000);
  return t.context(7, 0);
}

TEST(Apps, DistinctUsersNeverShareAnActiveDay) {
  MicroTrace t;
  const AnalysisContext ctx = top_bit_users(t);
  const AppPopularityResult r = analyze_apps(ctx);
  ASSERT_EQ(r.apps.size(), 2u);
  // User-days: Weather 2, WhatsApp 1.
  EXPECT_EQ(r.apps[0].name, "Weather");
  EXPECT_NEAR(r.apps[0].user_share_pct, 100.0 * 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(r.apps[1].user_share_pct, 100.0 / 3.0, 1e-9);
  // Each app averages one active day per user.
  EXPECT_NEAR(r.apps[0].used_days_pct, 50.0, 1e-9);
}

TEST(Categories, DistinctUsersNeverShareAnActiveDay) {
  MicroTrace t;
  const AnalysisContext ctx = top_bit_users(t);
  const CategoryResult r = analyze_categories(ctx);
  ASSERT_FALSE(r.by_users.empty());
  EXPECT_EQ(r.by_users[0].category, appdb::Category::kWeather);
  EXPECT_NEAR(r.by_users[0].user_share_pct, 100.0 * 2.0 / 3.0, 1e-9);
}

// ---- §6: through-device ------------------------------------------------------

TEST(MicroThroughDevice, DetectsCompanionTraffic) {
  MicroTrace t;
  // SIM-wearable owner for the comparison baseline.
  t.mme(0, 8, 1, kWearTac, trace::MmeEvent::kAttach, 1);
  t.proxy(0, 10, 0, 0, 1, kWearTac, "api.weather.com", 1000);
  t.proxy(0, 11, 0, 0, 1, kPhoneTac, "graph.facebook.com", 5000);
  // TD user 2: Fitbit sync traffic on the phone.
  t.mme(0, 8, 2, kPhoneTac, trace::MmeEvent::kAttach, 1);
  t.proxy(0, 12, 0, 0, 2, kPhoneTac, "api.fitbit.com", 3000);
  t.proxy(0, 13, 0, 0, 2, kPhoneTac, "android-cdn-api.fitbit.com", 2000);
  // Plain user 3: no companion traffic.
  t.proxy(0, 12, 0, 0, 3, kPhoneTac, "api.twitter.com", 4000);

  const AnalysisContext ctx = t.context(14, 0);
  const ThroughDeviceResult r = analyze_throughdevice(ctx);
  EXPECT_EQ(r.detected_users, 1u);
  ASSERT_EQ(r.per_signature.size(), 5u);
  EXPECT_EQ(r.per_signature[0], 1u);  // Fitbit
  EXPECT_EQ(r.per_signature[1], 0u);
  EXPECT_GT(r.daily_txn_ratio, 0.0);
}

TEST(MicroThroughDevice, MatchesPerHostSemantics) {
  // Signature order: Fitbit, Xiaomi-Band, AccuWeather-Wear, Strava-Wear,
  // Runtastic-Wear.  The detailed window starts on day 1.
  MicroTrace t;
  // User 1 owns a SIM wearable: companion traffic never makes it a TD user.
  t.mme(1, 8, 1, kWearTac, trace::MmeEvent::kAttach, 1);
  t.proxy(1, 9, 0, 0, 1, kPhoneTac, "api.fitbit.com", 1000);
  t.proxy(1, 10, 0, 0, 1, kPhoneTac, "eu.wear.strava.com", 1000);
  // User 2: mixed-case Fitbit host twice plus a deeper Strava subdomain —
  // two signatures, each counted once.
  t.proxy(1, 9, 0, 0, 2, kPhoneTac, "API.FITBIT.COM", 1000);
  t.proxy(1, 11, 0, 0, 2, kPhoneTac, "API.FITBIT.COM", 1000);
  t.proxy(2, 9, 0, 0, 2, kPhoneTac, "eu.wear.strava.com", 1000);
  // User 3: near misses only.
  t.proxy(1, 9, 0, 0, 3, kPhoneTac, "notwear.strava.com", 1000);
  t.proxy(1, 10, 0, 0, 3, kPhoneTac, "wear.strava.com.evil.net", 1000);
  // User 4: companion traffic only before the detailed window.
  t.proxy(0, 9, 0, 0, 4, kPhoneTac, "api.fitbit.com", 1000);
  t.proxy(1, 9, 0, 0, 4, kPhoneTac, "api.twitter.com", 1000);
  // User 5 reuses user 2's Strava host (one dictionary entry, two users).
  t.proxy(3, 9, 0, 0, 5, kPhoneTac, "eu.wear.strava.com", 1000);

  const AnalysisContext ctx = t.context(14, 1);
  const ThroughDeviceResult r = analyze_throughdevice(ctx);
  EXPECT_EQ(r.detected_users, 2u);  // users 2 and 5
  ASSERT_EQ(r.per_signature.size(), 5u);
  EXPECT_EQ(r.per_signature[0], 1u);  // Fitbit: user 2
  EXPECT_EQ(r.per_signature[1], 0u);
  EXPECT_EQ(r.per_signature[2], 0u);
  EXPECT_EQ(r.per_signature[3], 2u);  // Strava: users 2 and 5
  EXPECT_EQ(r.per_signature[4], 0u);
  // Daily in-window phone txns: TD users {3, 1} (median 2), SIM user {2}.
  EXPECT_NEAR(r.daily_txn_ratio, 1.0, 1e-12);
}

}  // namespace
}  // namespace wearscope::core
