// Tests for the proxy rows as the one in-memory record representation, and
// the analysis kernels' equivalence with independent references on the
// same capture.
//
// The rows and their canonical pools are the store: the same capture
// yields the same rows and pools whatever format carried it and after
// every mutator (sanitize, anonymize, chaos injection).  The kernels
// gather each user's rows by index; adoption and activity are checked
// against the streaming counters fed record by record (hash sets and
// maps, the live shards' code), diurnal, usage and third-party against
// the row oracles of row_oracle.h.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <unistd.h>
#include <vector>

#include "core/analysis_activity.h"
#include "core/analysis_adoption.h"
#include "core/analysis_diurnal.h"
#include "core/analysis_thirdparty.h"
#include "core/analysis_usage.h"
#include "core/context.h"
#include "core/streaming.h"
#include "core/streaming_activity.h"
#include "chaos/fault_plan.h"
#include "live/event.h"
#include "row_oracle.h"
#include "simnet/simulator.h"
#include "test_support.h"
#include "trace/anonymize.h"
#include "trace/bundle.h"
#include "trace/sanitize.h"
#include "trace/store.h"

namespace wearscope::trace {
namespace {

static_assert(std::is_trivially_copyable_v<ProxyRecord>);
static_assert(std::is_trivially_copyable_v<live::StampedProxy>);

// ---- Columnar kernels vs independent references ----------------------------

const simnet::SimResult& capture() {
  static const simnet::SimResult sim = [] {
    simnet::SimConfig cfg = simnet::SimConfig::small();
    cfg.seed = 4242;
    return simnet::Simulator(cfg).run();
  }();
  return sim;
}

core::AnalysisContext make_context(int threads = 1) {
  const simnet::SimResult& sim = capture();
  core::AnalysisOptions opt;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.detailed_start_day;
  opt.long_tail_apps = sim.config.long_tail_apps;
  opt.threads = threads;
  return core::AnalysisContext(sim.store, opt);
}

void expect_same_ecdf(const util::Ecdf& a, const util::Ecdf& b,
                      const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.sorted().size(); ++i) {
    ASSERT_DOUBLE_EQ(a.sorted()[i], b.sorted()[i]) << what << " sample " << i;
  }
}

/// The streaming counters fed the context's whole store, record by record.
core::AdoptionResult streamed_adoption(const core::AnalysisContext& ctx) {
  core::StreamingAdoption streaming(ctx.devices(),
                                    ctx.options().observation_days);
  for (const MmeRecord& r : ctx.store().mme) streaming.on_mme(r);
  for (const ProxyRecord& r : ctx.store().proxy) streaming.on_proxy(r);
  return streaming.finalize();
}

core::ActivityResult streamed_activity(const core::AnalysisContext& ctx) {
  core::StreamingActivity streaming(ctx.devices(),
                                    ctx.options().observation_days,
                                    ctx.options().detailed_start_day);
  const Rows<ProxyRecord>& proxy = ctx.store().proxy;
  for (std::size_t i = 0; i < proxy.size(); ++i) {
    streaming.on_proxy(proxy[i], i);
  }
  return streaming.finalize();
}

TEST(ColumnarKernels, AdoptionMatchesStreamingReference) {
  const core::AnalysisContext ctx = make_context();
  const core::AdoptionResult cols = core::analyze_adoption(ctx);
  const core::AdoptionResult ref = streamed_adoption(ctx);
  EXPECT_GT(ref.ever_registered, 0u);
  EXPECT_EQ(cols.ever_registered, ref.ever_registered);
  EXPECT_EQ(cols.ever_transacted, ref.ever_transacted);
  EXPECT_DOUBLE_EQ(cols.ever_transacting_fraction,
                   ref.ever_transacting_fraction);
  EXPECT_DOUBLE_EQ(cols.total_growth, ref.total_growth);
  EXPECT_DOUBLE_EQ(cols.monthly_growth, ref.monthly_growth);
  EXPECT_DOUBLE_EQ(cols.still_active_share, ref.still_active_share);
  EXPECT_DOUBLE_EQ(cols.gone_share, ref.gone_share);
  EXPECT_DOUBLE_EQ(cols.new_share, ref.new_share);
  EXPECT_DOUBLE_EQ(cols.churned_of_initial, ref.churned_of_initial);
  ASSERT_EQ(cols.daily_registered_norm.size(),
            ref.daily_registered_norm.size());
  for (std::size_t d = 0; d < cols.daily_registered_norm.size(); ++d) {
    EXPECT_DOUBLE_EQ(cols.daily_registered_norm[d],
                     ref.daily_registered_norm[d])
        << "day " << d;
  }
}

// User ids spread across the 64-bit range (as anonymization leaves them)
// must match the streaming counter exactly too.
TEST(ColumnarKernels, AdoptionSparseUserIdsMatchStreamingReference) {
  constexpr Tac kWearTac = 35254208u;  // Gear S3 frontier LTE
  TraceStore store;
  store.devices = {{kWearTac, "Gear S3 frontier LTE", "Samsung", "Tizen"}};
  store.sectors = {{1, {40.0, -3.0}}};
  const UserId users[] = {7u, UserId{1} << 40, (UserId{1} << 40) + 9999u,
                          UserId{1} << 60};
  for (int d = 0; d < 28; ++d) {
    for (const UserId u : users) {
      if (u == users[1] && d >= 14) continue;  // churns after two weeks
      if (u == users[3] && d < 21) continue;   // adopts in the last week
      store.mme.push_back({util::day_start(d) + 8 * 3600, u, kWearTac,
                           MmeEvent::kAttach, 1});
    }
  }
  store.sort_by_time();
  core::AnalysisOptions opt;
  opt.observation_days = 28;
  opt.detailed_start_day = 14;
  opt.long_tail_apps = 10;
  const core::AnalysisContext ctx(store, opt);
  const core::AdoptionResult cols = core::analyze_adoption(ctx);
  const core::AdoptionResult ref = streamed_adoption(ctx);
  EXPECT_EQ(cols.ever_registered, ref.ever_registered);
  EXPECT_EQ(ref.ever_registered, 4u);
  EXPECT_DOUBLE_EQ(cols.still_active_share, ref.still_active_share);
  EXPECT_DOUBLE_EQ(cols.gone_share, ref.gone_share);
  EXPECT_DOUBLE_EQ(cols.new_share, ref.new_share);
  EXPECT_DOUBLE_EQ(cols.churned_of_initial, ref.churned_of_initial);
  ASSERT_EQ(cols.daily_registered_norm.size(),
            ref.daily_registered_norm.size());
  for (std::size_t d = 0; d < cols.daily_registered_norm.size(); ++d) {
    EXPECT_DOUBLE_EQ(cols.daily_registered_norm[d],
                     ref.daily_registered_norm[d])
        << "day " << d;
  }
}

TEST(ColumnarKernels, ActivityMatchesStreamingReference) {
  const core::AnalysisContext ctx = make_context();
  const core::ActivityResult cols = core::analyze_activity(ctx);
  const core::ActivityResult ref = streamed_activity(ctx);
  EXPECT_GT(ref.txn_size_bytes.size(), 0u);
  expect_same_ecdf(cols.active_days_per_week, ref.active_days_per_week,
                   "days/week");
  expect_same_ecdf(cols.active_hours_per_day, ref.active_hours_per_day,
                   "hours/day");
  expect_same_ecdf(cols.txn_size_bytes, ref.txn_size_bytes, "txn bytes");
  expect_same_ecdf(cols.hourly_txns_per_user, ref.hourly_txns_per_user,
                   "hourly txns");
  expect_same_ecdf(cols.hourly_bytes_per_user, ref.hourly_bytes_per_user,
                   "hourly bytes");
  EXPECT_DOUBLE_EQ(cols.mean_active_days, ref.mean_active_days);
  EXPECT_DOUBLE_EQ(cols.mean_active_hours, ref.mean_active_hours);
  EXPECT_DOUBLE_EQ(cols.frac_over_10h, ref.frac_over_10h);
  EXPECT_DOUBLE_EQ(cols.frac_under_5h, ref.frac_under_5h);
  EXPECT_DOUBLE_EQ(cols.mean_txn_bytes, ref.mean_txn_bytes);
  EXPECT_DOUBLE_EQ(cols.median_txn_bytes, ref.median_txn_bytes);
  EXPECT_DOUBLE_EQ(cols.frac_txn_under_10kb, ref.frac_txn_under_10kb);
  EXPECT_DOUBLE_EQ(cols.correlation, ref.correlation);
  EXPECT_DOUBLE_EQ(cols.binned_trend_corr, ref.binned_trend_corr);
}

TEST(ColumnarKernels, DiurnalMatchesRowReference) {
  const core::AnalysisContext ctx = make_context();
  const core::DiurnalResult cols = core::analyze_diurnal(ctx);
  const core::DiurnalResult rows = oracle::diurnal_rows(ctx);
  for (int h = 0; h < 24; ++h) {
    EXPECT_DOUBLE_EQ(cols.users_weekday[h], rows.users_weekday[h]) << h;
    EXPECT_DOUBLE_EQ(cols.users_weekend[h], rows.users_weekend[h]) << h;
    EXPECT_DOUBLE_EQ(cols.data_weekday[h], rows.data_weekday[h]) << h;
    EXPECT_DOUBLE_EQ(cols.data_weekend[h], rows.data_weekend[h]) << h;
    EXPECT_DOUBLE_EQ(cols.txns_weekday[h], rows.txns_weekday[h]) << h;
    EXPECT_DOUBLE_EQ(cols.txns_weekend[h], rows.txns_weekend[h]) << h;
  }
  for (int d = 0; d < 7; ++d) {
    EXPECT_DOUBLE_EQ(cols.dow_txn_share[d], rows.dow_txn_share[d]) << d;
  }
  EXPECT_DOUBLE_EQ(cols.daily_active_fraction, rows.daily_active_fraction);
  EXPECT_DOUBLE_EQ(cols.commute_bump_ratio, rows.commute_bump_ratio);
  EXPECT_DOUBLE_EQ(cols.weekend_relative_usage, rows.weekend_relative_usage);
  EXPECT_DOUBLE_EQ(cols.day_of_week_spread, rows.day_of_week_spread);
}

TEST(ColumnarKernels, UsageMatchesRowReference) {
  const core::AnalysisContext ctx = make_context();
  const core::UsageResult cols = core::analyze_usage(ctx);
  const core::UsageResult rows = oracle::usage_rows(ctx);
  ASSERT_EQ(cols.apps.size(), rows.apps.size());
  for (std::size_t i = 0; i < cols.apps.size(); ++i) {
    EXPECT_EQ(cols.apps[i].app, rows.apps[i].app) << i;
    EXPECT_DOUBLE_EQ(cols.apps[i].mean_txns_per_usage,
                     rows.apps[i].mean_txns_per_usage)
        << i;
    EXPECT_DOUBLE_EQ(cols.apps[i].mean_kb_per_usage,
                     rows.apps[i].mean_kb_per_usage)
        << i;
    EXPECT_DOUBLE_EQ(cols.apps[i].mean_duration_s,
                     rows.apps[i].mean_duration_s)
        << i;
  }
}

TEST(ColumnarKernels, ThirdPartyMatchesRowReference) {
  const core::AnalysisContext ctx = make_context();
  const core::ThirdPartyResult cols = core::analyze_thirdparty(ctx);
  const core::ThirdPartyResult rows = oracle::thirdparty_rows(ctx);
  for (std::size_t c = 0; c < cols.classes.size(); ++c) {
    EXPECT_EQ(cols.classes[c].cls, rows.classes[c].cls) << c;
    EXPECT_DOUBLE_EQ(cols.classes[c].user_share_pct,
                     rows.classes[c].user_share_pct)
        << c;
    EXPECT_DOUBLE_EQ(cols.classes[c].txn_share_pct,
                     rows.classes[c].txn_share_pct)
        << c;
    EXPECT_DOUBLE_EQ(cols.classes[c].data_share_pct,
                     rows.classes[c].data_share_pct)
        << c;
  }
  EXPECT_DOUBLE_EQ(cols.app_over_thirdparty_data,
                   rows.app_over_thirdparty_data);
}

TEST(ColumnarKernels, ThreadCountDoesNotChangeTheAnswer) {
  const core::AnalysisContext one = make_context(1);
  const core::AnalysisContext eight = make_context(8);
  const core::AdoptionResult a1 = core::analyze_adoption(one);
  const core::AdoptionResult a8 = core::analyze_adoption(eight);
  EXPECT_EQ(a1.ever_registered, a8.ever_registered);
  EXPECT_DOUBLE_EQ(a1.monthly_growth, a8.monthly_growth);
  expect_same_ecdf(core::analyze_activity(one).txn_size_bytes,
                   core::analyze_activity(eight).txn_size_bytes, "txn bytes");
}

// ---- Rows and canonical pools across formats and mutators -----------------

/// `store`'s pools are canonical over its sorted rows: re-interning every
/// row's host and path strings, row by row, into fresh pools rebuilds
/// exactly its pools and ids (each string once, in first-use order).
void expect_canonical_pools(const TraceStore& store, const std::string& what) {
  ASSERT_TRUE(store.is_sorted()) << what;
  ProxyPools fresh;
  for (std::size_t i = 0; i < store.proxy.size(); ++i) {
    const ProxyRecord& r = store.proxy[i];
    ASSERT_EQ(fresh.hosts.intern(store.hosts[r.host_id]), r.host_id)
        << what << ", row " << i;
    ASSERT_EQ(fresh.paths.intern(store.paths[r.path_id]), r.path_id)
        << what << ", row " << i;
  }
  EXPECT_EQ(fresh, static_cast<const ProxyPools&>(store)) << what;
}

/// Saves `store` in every written bundle format (v3 and CSV), loads each
/// back at every thread count of `threads` and sorts it: the result has
/// the same rows and pools as `store`, and they are canonical.  The
/// read-only v1/v2 loads are checked against their fixtures
/// (test_trace_io.cpp).
void expect_same_store_in_every_format(const TraceStore& store,
                                       const std::string& what,
                                       std::initializer_list<int> threads) {
  expect_canonical_pools(store, what);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("wearscope_columns_rows_" + std::to_string(::getpid()));
  struct Format {
    const char* name;
    BundleFormat format;
  };
  for (const Format& f : {Format{"v3", BundleFormat::kBinary},
                          Format{"csv", BundleFormat::kCsv}}) {
    std::filesystem::remove_all(dir);
    save_bundle(store, dir, f.format);
    for (const int t : threads) {
      LoadOptions load;
      load.threads = t;
      TraceStore loaded = load_bundle(dir, load);
      loaded.sort_by_time();
      const std::string at =
          what + ", " + f.name + " load at " + std::to_string(t);
      EXPECT_EQ(loaded.proxy, store.proxy) << at;
      EXPECT_EQ(loaded.mme, store.mme) << at;
      EXPECT_EQ(static_cast<const ProxyPools&>(loaded),
                static_cast<const ProxyPools&>(store))
          << at;
      expect_canonical_pools(loaded, at);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(Columns, StoreColumnsMatchTheOracleForEveryFormat) {
  expect_same_store_in_every_format(capture().store, "simulated",
                                    {1, 2, 4, 8});
}

TEST(Columns, StoreColumnsMatchTheOracleAfterMutators) {
  {
    TraceStore store = capture().store;
    // Blank every 53rd host: the sanitizer drops those rows, and with
    // them the last users of some pool entries.
    for (std::size_t i = 0; i < store.proxy.size(); i += 53)
      store.proxy[i].host_id = store.hosts.intern("");
    const QuarantineStats q = sanitize_store(store);
    ASSERT_GT(q.bad_host, 0u);
    store.sort_by_time();
    expect_same_store_in_every_format(store, "sanitized", {4});
  }
  {
    TraceStore store = capture().store;
    anonymize(store, AnonymizePolicy{});
    expect_same_store_in_every_format(store, "anonymized", {4});
  }
  {
    TraceStore store = capture().store;
    const chaos::FaultPlan plan(17, chaos::FaultProfile::named("records"));
    const chaos::FaultManifest manifest = plan.inject_records(store);
    ASSERT_GT(manifest.expected.bad_host, 0u);
    EXPECT_TRUE(sanitize_store(store) == manifest.expected);
    store.sort_by_time();
    expect_same_store_in_every_format(store, "chaos-injected", {4});
  }
}

}  // namespace
}  // namespace wearscope::trace
