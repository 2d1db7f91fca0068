// Tests for the in-memory columnar transpose (trace/columns.h) and the
// columnar kernels' equivalence with independent references on the same
// capture: adoption and activity against the streaming counters fed
// record by record (hash sets and maps, the live shards' code), diurnal,
// usage and third-party against the row oracles of row_oracle.h.
#include "trace/columns.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
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
#include "par/task_pool.h"
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

/// Four proxy rows (hosts interned into `pools` in row order).
std::vector<ProxyRecord> sample_proxy_rows(ProxyPools& pools) {
  std::vector<ProxyRecord> rows;
  const char* hosts[] = {"api.weather.com", "gw.gear.samsung.com",
                         "api.weather.com", "ads.example.net"};
  const Tac tacs[] = {35254208u, 35332008u, 35254208u, 35254208u};
  for (int i = 0; i < 4; ++i) {
    ProxyRecord r;
    r.timestamp = 1000 + i * 60;
    r.user_id = 100 + static_cast<UserId>(i % 2);
    r.tac = tacs[i];
    r.protocol = i % 2 == 0 ? Protocol::kHttps : Protocol::kHttp;
    testing::set_strings(r, pools, hosts[i], "/p" + std::to_string(i));
    r.bytes_up = 10u * static_cast<std::uint64_t>(i + 1);
    r.bytes_down = 100u * static_cast<std::uint64_t>(i + 1);
    r.duration_ms = 250u + static_cast<std::uint32_t>(i);
    rows.push_back(r);
  }
  return rows;
}

/// Every column and dictionary of `a` equals `b`'s.
void expect_same_columns(const ProxyColumns& a, const ProxyColumns& b,
                         const std::string& what) {
  EXPECT_EQ(a.timestamp, b.timestamp) << what;
  EXPECT_EQ(a.user_id, b.user_id) << what;
  EXPECT_EQ(a.tac_id, b.tac_id) << what;
  EXPECT_EQ(a.protocol, b.protocol) << what;
  EXPECT_EQ(a.host_id, b.host_id) << what;
  EXPECT_EQ(a.bytes_up, b.bytes_up) << what;
  EXPECT_EQ(a.bytes_down, b.bytes_down) << what;
  EXPECT_EQ(a.bytes_total, b.bytes_total) << what;
  EXPECT_EQ(a.duration_ms, b.duration_ms) << what;
  EXPECT_EQ(a.hosts, b.hosts) << what;
  EXPECT_EQ(a.tacs, b.tacs) << what;
}

TEST(Columns, ProxyTransposeMatchesRows) {
  ProxyPools pools;
  const std::vector<ProxyRecord> rows = sample_proxy_rows(pools);
  const ProxyColumns cols = build_proxy_columns(rows, pools.hosts);
  ASSERT_EQ(cols.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(cols.timestamp[i], rows[i].timestamp) << i;
    EXPECT_EQ(cols.user_id[i], rows[i].user_id) << i;
    EXPECT_EQ(cols.tacs[cols.tac_id[i]], rows[i].tac) << i;
    EXPECT_EQ(cols.protocol[i], static_cast<std::uint8_t>(rows[i].protocol))
        << i;
    EXPECT_EQ(cols.hosts[cols.host_id[i]], pools.hosts[rows[i].host_id]) << i;
    EXPECT_EQ(cols.bytes_up[i], rows[i].bytes_up) << i;
    EXPECT_EQ(cols.bytes_down[i], rows[i].bytes_down) << i;
    EXPECT_EQ(cols.bytes_total[i], rows[i].bytes_total()) << i;
    EXPECT_EQ(cols.duration_ms[i], rows[i].duration_ms) << i;
  }
  expect_same_columns(cols, oracle::proxy_columns_rows(rows, pools.hosts),
                      "oracle");
}

TEST(Columns, DictionariesAreFirstAppearanceOrder) {
  ProxyPools pools;
  const ProxyColumns cols =
      build_proxy_columns(sample_proxy_rows(pools), pools.hosts);
  // Hosts: weather first, gear gateway second, ads third (repeat reuses).
  ASSERT_EQ(cols.hosts.size(), 3u);
  EXPECT_EQ(cols.hosts[0], "api.weather.com");
  EXPECT_EQ(cols.hosts[1], "gw.gear.samsung.com");
  EXPECT_EQ(cols.hosts[2], "ads.example.net");
  EXPECT_EQ(cols.host_id[2], 0u);  // repeat of row 0's host
  ASSERT_EQ(cols.tacs.size(), 2u);
  EXPECT_EQ(cols.tacs[0], 35254208u);
  EXPECT_EQ(cols.tacs[1], 35332008u);
}

TEST(Columns, MmeTransposeMatchesRows) {
  std::vector<MmeRecord> rows;
  for (int i = 0; i < 6; ++i) {
    rows.push_back({static_cast<util::SimTime>(500 + i),
                    static_cast<UserId>(7 + i % 3),
                    i % 2 == 0 ? 35254208u : 35909306u, MmeEvent::kAttach,
                    static_cast<SectorId>(40 + i)});
  }
  const MmeColumns cols = build_mme_columns(rows);
  ASSERT_EQ(cols.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(cols.timestamp[i], rows[i].timestamp) << i;
    EXPECT_EQ(cols.user_id[i], rows[i].user_id) << i;
    EXPECT_EQ(cols.tacs[cols.tac_id[i]], rows[i].tac) << i;
    EXPECT_EQ(cols.event[i], static_cast<std::uint8_t>(rows[i].event)) << i;
    EXPECT_EQ(cols.sector_id[i], rows[i].sector_id) << i;
  }
  ASSERT_EQ(cols.tacs.size(), 2u);
}

TEST(Columns, EmptyInputBuildsEmptyColumns) {
  const ProxyColumns p = build_proxy_columns({}, StringPool{});
  EXPECT_EQ(p.size(), 0u);
  EXPECT_TRUE(p.hosts.empty());
  const MmeColumns m = build_mme_columns({});
  EXPECT_EQ(m.size(), 0u);
}

TEST(Columns, PoolSizeDoesNotChangeTheColumns) {
  TraceStore store;
  for (int i = 0; i < 2000; ++i) {
    ProxyRecord r;
    r.timestamp = i;
    r.user_id = static_cast<UserId>(i % 37);
    r.tac = 35254208u + static_cast<Tac>(i % 5);
    testing::set_strings(r, store, "host" + std::to_string(i % 61));
    r.bytes_up = static_cast<std::uint64_t>(i);
    r.bytes_down = static_cast<std::uint64_t>(2 * i);
    store.proxy.push_back(r);
  }
  ASSERT_TRUE(store.is_sorted());
  const ProxyColumns seq = build_proxy_columns(store.proxy, store.hosts);
  expect_same_columns(seq, oracle::proxy_columns_rows(store.proxy, store.hosts),
                      "oracle");
  for (int threads : {2, 4, 8}) {
    par::TaskPool pool(threads);
    expect_same_columns(build_proxy_columns(store.proxy, store.hosts, &pool),
                        seq, std::to_string(threads) + " threads");
  }
}

TEST(Columns, StoreBuildIsLazyAndSortInvalidates) {
  TraceStore store;
  ProxyRecord r;
  r.timestamp = 10;
  r.user_id = 1;
  r.tac = 35254208u;
  testing::set_strings(r, store, "a.example");
  store.proxy.push_back(r);
  r.timestamp = 5;
  testing::set_strings(r, store, "b.example");
  store.proxy.push_back(r);

  EXPECT_FALSE(store.columns_built());
  store.build_columns();
  EXPECT_TRUE(store.columns_built());
  EXPECT_EQ(store.proxy_columns().timestamp[0], 10);

  store.sort_by_time();
  EXPECT_FALSE(store.columns_built());
  // On-demand rebuild reflects the new row order, and the sort renumbered
  // the host pool into first-appearance order over it.
  EXPECT_EQ(store.proxy_columns().timestamp[0], 5);
  EXPECT_TRUE(store.columns_built());
  EXPECT_EQ(store.proxy_columns().hosts,
            (std::vector<std::string>{"b.example", "a.example"}));
  EXPECT_EQ(store.proxy_columns().host_id,
            (std::vector<std::uint32_t>{0, 1}));
}

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
  const std::vector<ProxyRecord>& proxy = ctx.store().proxy;
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

// The adoption kernel's dense last-seen-stamp fast path only engages for
// compact user-id spaces; ids spread across the 64-bit range must take
// the sort+unique fallback and still match the streaming counter exactly.
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

// ---- Store columns vs the string-hashing oracle ----------------------------

/// The store's column build at 1, 2, 4 and 8 threads equals the oracle's
/// string-hashing transpose of the same rows.
void expect_columns_match_oracle(const TraceStore& store,
                                 const std::string& what) {
  ASSERT_TRUE(store.is_sorted()) << what;
  const ProxyColumns want = oracle::proxy_columns_rows(store.proxy, store.hosts);
  expect_same_columns(build_proxy_columns(store.proxy, store.hosts, nullptr),
                      want, what + ", inline");
  for (const int threads : {1, 2, 4, 8}) {
    par::TaskPool pool(static_cast<std::size_t>(threads));
    expect_same_columns(build_proxy_columns(store.proxy, store.hosts, &pool),
                        want, what + ", " + std::to_string(threads) +
                                  " threads");
  }
}

TEST(Columns, StoreColumnsMatchTheOracleForEveryFormat) {
  const TraceStore& original = capture().store;
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("wearscope_columns_oracle_" + std::to_string(::getpid()));
  struct Format {
    const char* name;
    BundleFormat format;
    std::uint16_t version;
  };
  for (const Format& f : {Format{"v1", BundleFormat::kBinary, 1},
                          Format{"v2", BundleFormat::kBinary, 2},
                          Format{"v3", BundleFormat::kBinary, 3},
                          Format{"csv", BundleFormat::kCsv, 3}}) {
    std::filesystem::remove_all(dir);
    save_bundle(original, dir, f.format, f.version);
    for (const int threads : {1, 2, 4, 8}) {
      LoadOptions load;
      load.threads = threads;
      TraceStore store = load_bundle(dir, load);
      store.sort_by_time();
      const std::string what =
          std::string(f.name) + " load at " + std::to_string(threads);
      // Canonical pools: the same capture is the same rows and pools,
      // whatever format carried it.
      EXPECT_EQ(store.proxy, original.proxy) << what;
      EXPECT_EQ(static_cast<const ProxyPools&>(store), original) << what;
      expect_columns_match_oracle(store, what);
    }
  }
  std::filesystem::remove_all(dir);
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
    expect_columns_match_oracle(store, "sanitized");
  }
  {
    TraceStore store = capture().store;
    anonymize(store, AnonymizePolicy{});
    expect_columns_match_oracle(store, "anonymized");
  }
  {
    TraceStore store = capture().store;
    const chaos::FaultPlan plan(17, chaos::FaultProfile::named("records"));
    const chaos::FaultManifest manifest = plan.inject_records(store);
    ASSERT_GT(manifest.expected.bad_host, 0u);
    EXPECT_TRUE(sanitize_store(store) == manifest.expected);
    store.sort_by_time();
    expect_columns_match_oracle(store, "chaos-injected");
  }
}

}  // namespace
}  // namespace wearscope::trace
