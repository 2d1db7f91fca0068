// wearscope::par + parallel batch pipeline tests.
//
// Three suites:
//  - TaskPool: the scheduler itself (inline single-thread path, full batch
//    execution, exception propagation, slice coverage, and the weighted
//    slice bounds: a heavy head item alone, all-zero weights, fewer items
//    than slices).
//  - ParPipeline: the determinism contract — the serialized StudyReport is
//    byte-identical for --threads 1/2/3/4/8 on a seeded capture, and the
//    context's user order/attribution matches the sequential reference.
//  - HostClassification: the allocation-free lookup path agrees with a
//    reimplementation of the old allocating classifier over a seeded fuzz
//    corpus of hosts, and HostClassCache is a pure memo.
#include <algorithm>
#include <atomic>
#include <cctype>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "par/shard.h"
#include "par/task_pool.h"
#include "simnet/simulator.h"
#include "util/rng.h"
#include "util/strings.h"

namespace wearscope {
namespace {

// --- TaskPool --------------------------------------------------------------

TEST(TaskPool, RunsEveryTask) {
  par::TaskPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  std::atomic<int> count{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) tasks.push_back([&count] { ++count; });
  pool.run(std::move(tasks));
  EXPECT_EQ(count.load(), 100);
}

TEST(TaskPool, SingleThreadRunsInlineInSubmissionOrder) {
  par::TaskPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<int> order;
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 10; ++i) tasks.push_back([&order, i] { order.push_back(i); });
  pool.run(std::move(tasks));
  const std::vector<int> expected = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(order, expected);
}

TEST(TaskPool, ZeroThreadsClampsToOne) {
  par::TaskPool pool(0);
  EXPECT_EQ(pool.threads(), 1u);
  int ran = 0;
  pool.run({[&ran] { ++ran; }});
  EXPECT_EQ(ran, 1);
}

TEST(TaskPool, EmptyBatchIsNoOp) {
  par::TaskPool pool(4);
  pool.run({});
}

TEST(TaskPool, FirstExceptionPropagatesAfterDrain) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    par::TaskPool pool(threads);
    std::atomic<int> completed{0};
    std::vector<std::function<void()>> tasks;
    tasks.push_back([] { throw std::runtime_error("task boom"); });
    for (int i = 0; i < 20; ++i) tasks.push_back([&completed] { ++completed; });
    EXPECT_THROW(pool.run(std::move(tasks)), std::runtime_error);
    // The pool must stay usable after a failed batch.
    std::atomic<int> again{0};
    pool.run({[&again] { ++again; }});
    EXPECT_EQ(again.load(), 1);
  }
}

TEST(TaskPool, ForSlicesCoversRangeExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3},
                                    std::size_t{8}}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{5}, std::size_t{97}}) {
      par::TaskPool pool(threads);
      std::vector<std::atomic<int>> hits(n);
      pool.for_slices(n, [&hits](std::size_t lo, std::size_t hi,
                                 std::size_t slice) {
        EXPECT_LT(lo, hi);
        EXPECT_LT(slice, 8u);
        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads "
                                     << threads;
      }
    }
  }
}

/// slice_bounds over explicit per-item weights.
std::vector<std::size_t> bounds_of(const std::vector<std::uint64_t>& weights,
                                   std::size_t max_slices) {
  return par::weighted_slice_bounds(
      weights.size(), max_slices,
      [&weights](std::size_t i) { return weights[i]; });
}

/// Checks that `bounds` cut [0, n) into at most `max_slices` non-empty
/// slices, in order.
void expect_valid_bounds(const std::vector<std::size_t>& bounds,
                         std::size_t n, std::size_t max_slices) {
  ASSERT_FALSE(bounds.empty());
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), n);
  EXPECT_LE(bounds.size() - 1, std::max<std::size_t>(max_slices, 1));
  for (std::size_t s = 0; s + 1 < bounds.size(); ++s)
    EXPECT_LT(bounds[s], bounds[s + 1]) << "slice " << s << " is empty";
}

TEST(TaskPool, SliceBoundsCoverEveryWeightingInOrder) {
  util::Pcg32 rng(0x511CE);
  for (int round = 0; round < 200; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 40));
    const auto max_slices = static_cast<std::size_t>(rng.uniform_int(0, 9));
    std::vector<std::uint64_t> weights(n);
    for (std::uint64_t& w : weights)
      w = rng.uniform_int(0, 3) == 0 ? 0 : static_cast<std::uint64_t>(
                                               rng.uniform_int(1, 1000));
    const std::vector<std::size_t> bounds = bounds_of(weights, max_slices);
    expect_valid_bounds(bounds, n, max_slices);
    EXPECT_EQ(bounds.size() - 1,
              std::min(std::max<std::size_t>(max_slices, 1), n))
        << "every slice the pool can use holds an item";
    EXPECT_EQ(bounds, bounds_of(weights, max_slices)) << "pure";
  }
}

TEST(TaskPool, SliceBoundsGiveAHeavyHeadItsOwnSlice) {
  // The wearable owners come first in discovery order and carry nearly
  // all of the attribution work.
  std::vector<std::uint64_t> weights(100, 1);
  weights[0] = 1000;
  const std::vector<std::size_t> bounds = bounds_of(weights, 4);
  expect_valid_bounds(bounds, 100, 4);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds[1], 1u) << "the heavy item is a slice of its own";
  // The light rest spreads evenly over the other three slices.
  for (std::size_t s = 1; s < 4; ++s)
    EXPECT_EQ(bounds[s + 1] - bounds[s], 33u) << "slice " << s;
}

TEST(TaskPool, SliceBoundsCloseEachSliceAtItsFairShare) {
  // Weights 8, 1 x 8, 8 (24 in all) in three slices.  The first slice's
  // share is 24 / 3 = 8, so the heavy head closes it alone; the second's
  // is what is left over the slices left, 16 / 2 = 8: the eight light
  // items; the heavy tail is the third.
  const std::vector<std::uint64_t> weights = {8, 1, 1, 1, 1, 1, 1, 1, 1, 8};
  const std::vector<std::size_t> bounds = bounds_of(weights, 3);
  expect_valid_bounds(bounds, weights.size(), 3);
  const std::vector<std::size_t> expected = {0, 1, 9, 10};
  EXPECT_EQ(bounds, expected);
  // With four slices: 24 / 4 = 6 still takes the head alone, then
  // 16 / 3 -> 6 light items, 10 / 2 -> the last two light items (a slice
  // keeps the heavy tail for the last slice), and the tail.
  const std::vector<std::size_t> four = {0, 1, 7, 9, 10};
  EXPECT_EQ(bounds_of(weights, 4), four);
}

TEST(TaskPool, SliceBoundsSplitAllZeroWeightsByCount) {
  const std::vector<std::uint64_t> zeros(12, 0);
  const std::vector<std::size_t> expected = {0, 3, 6, 9, 12};
  EXPECT_EQ(bounds_of(zeros, 4), expected);
  const std::vector<std::uint64_t> ones(12, 1);
  EXPECT_EQ(bounds_of(ones, 4), expected);
}

TEST(TaskPool, SliceBoundsWithFewerItemsThanSlices) {
  const std::vector<std::uint64_t> weights = {5, 0, 7};
  const std::vector<std::size_t> one_each = {0, 1, 2, 3};
  EXPECT_EQ(bounds_of(weights, 8), one_each);
  EXPECT_EQ(bounds_of({}, 8), std::vector<std::size_t>{0});
  EXPECT_EQ(bounds_of({3}, 8), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(bounds_of(weights, 1), (std::vector<std::size_t>{0, 3}));
  EXPECT_EQ(bounds_of(weights, 0), (std::vector<std::size_t>{0, 3}));
}

TEST(TaskPool, ForWeightedSlicesCoversRangeExactlyOnceInSliceOrder) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3},
                                    std::size_t{4}, std::size_t{8}}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{2}, std::size_t{97}}) {
      par::TaskPool pool(threads);
      const auto weight = [](std::size_t i) { return i == 0 ? 500 : i % 3; };
      std::vector<std::atomic<int>> hits(n);
      std::vector<std::pair<std::size_t, std::size_t>> ranges(threads);
      std::atomic<std::size_t> slices{0};
      pool.for_weighted_slices(
          n, weight,
          [&](std::size_t lo, std::size_t hi, std::size_t slice) {
            EXPECT_LT(lo, hi);
            ASSERT_LT(slice, threads);
            ranges[slice] = {lo, hi};
            ++slices;
            for (std::size_t i = lo; i < hi; ++i) ++hits[i];
          });
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
      // Slice s is the s-th range of the weighted bounds.
      const std::vector<std::size_t> bounds =
          par::weighted_slice_bounds(n, threads, weight);
      ASSERT_EQ(slices.load(), bounds.size() - 1);
      for (std::size_t s = 0; s + 1 < bounds.size(); ++s) {
        EXPECT_EQ(ranges[s].first, bounds[s]);
        EXPECT_EQ(ranges[s].second, bounds[s + 1]);
      }
      if (threads > 1 && n > 1) {
        EXPECT_EQ(bounds[1], 1u) << "heavy head item alone";
      }
    }
  }
}

TEST(TaskPool, ForWeightedSlicesRunsInlineOnOneThread) {
  par::TaskPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  pool.for_weighted_slices(
      50, [](std::size_t i) { return i; },
      [&](std::size_t lo, std::size_t hi, std::size_t slice) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(lo, 0u);
        EXPECT_EQ(hi, 50u);
        EXPECT_EQ(slice, 0u);
        ++calls;
      });
  EXPECT_EQ(calls, 1);
}

TEST(TaskPool, ShardOfIsStableAndInRange) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4},
                                   std::size_t{7}}) {
    for (std::uint64_t user = 0; user < 1000; ++user) {
      const std::size_t s = par::shard_of(user, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, par::shard_of(user, shards));  // deterministic
    }
  }
}

// --- ParPipeline: determinism contract -------------------------------------

/// Shared seeded capture (small preset: fast, but exercises every analysis).
const simnet::SimResult& shared_capture() {
  static const simnet::SimResult sim = [] {
    simnet::SimConfig cfg = simnet::SimConfig::small();
    cfg.seed = 77;
    return simnet::Simulator(cfg).run();
  }();
  return sim;
}

core::AnalysisOptions options_with_threads(int threads) {
  const simnet::SimResult& sim = shared_capture();
  core::AnalysisOptions opt;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.detailed_start_day;
  opt.long_tail_apps = sim.config.long_tail_apps;
  opt.threads = threads;
  return opt;
}

TEST(ParPipeline, ReportBytesIdenticalForEveryThreadCount) {
  const simnet::SimResult& sim = shared_capture();
  const core::Pipeline reference(sim.store, options_with_threads(1));
  const std::string expected = reference.run().to_text();
  ASSERT_FALSE(expected.empty());
  for (const int threads : {2, 3, 4, 8}) {
    const core::Pipeline pipeline(sim.store, options_with_threads(threads));
    EXPECT_EQ(pipeline.run().to_text(), expected)
        << "report diverged at threads=" << threads;
  }
}

TEST(ParPipeline, ContextMatchesSequentialReference) {
  const simnet::SimResult& sim = shared_capture();
  const core::AnalysisContext ref(sim.store, options_with_threads(1));
  for (const int threads : {2, 3, 4, 8}) {
    const core::AnalysisContext ctx(sim.store, options_with_threads(threads));
    ASSERT_EQ(ctx.users().size(), ref.users().size());
    for (std::size_t i = 0; i < ref.users().size(); ++i) {
      const core::UserView& a = ref.users()[i];
      const core::UserView& b = ctx.users()[i];
      ASSERT_EQ(a.user_id, b.user_id) << "user order diverged at " << i;
      EXPECT_EQ(a.has_wearable, b.has_wearable);
      EXPECT_TRUE(std::ranges::equal(a.wearable_rows, b.wearable_rows));
      EXPECT_TRUE(std::ranges::equal(a.phone_rows, b.phone_rows));
      EXPECT_TRUE(std::ranges::equal(a.mme_rows, b.mme_rows));
      EXPECT_EQ(a.wearable_classes, b.wearable_classes);
      ASSERT_EQ(a.usages.size(), b.usages.size());
    }
    EXPECT_EQ(ctx.wearable_users().size(), ref.wearable_users().size());
    EXPECT_EQ(ctx.other_users().size(), ref.other_users().size());
  }
}

TEST(ParPipeline, FigureLookupIsConsistentWithLinearScan) {
  const simnet::SimResult& sim = shared_capture();
  const core::Pipeline pipeline(sim.store, options_with_threads(2));
  const core::StudyReport rep = pipeline.run();
  for (const core::FigureData& f : rep.figures) {
    EXPECT_EQ(&rep.figure(f.id), &f) << f.id;
  }
  EXPECT_THROW((void)rep.figure("no-such-figure"), std::out_of_range);
  // Repeated lookups hit the cached index; same addresses, same misses.
  for (const core::FigureData& f : rep.figures) {
    EXPECT_EQ(&rep.figure(f.id), &f) << f.id;
  }
  EXPECT_THROW((void)rep.figure("no-such-figure"), std::out_of_range);
}

// --- HostClassification: fuzz oracle ---------------------------------------

/// Reimplementation of the pre-optimization allocating classifier, built
/// from the same public inputs (catalog + third-party pools).  Serves as
/// the oracle the allocation-free path must agree with.
class OldStyleClassifier {
 public:
  explicit OldStyleClassifier(const appdb::AppCatalog& catalog) {
    std::size_t rule_total = 0;
    for (const appdb::AppInfo& app : catalog.apps()) {
      if (app.in_signature_table) rule_total += app.domains.size();
    }
    std::size_t rules = 0;
    for (const appdb::AppInfo& app : catalog.apps()) {
      if (!app.in_signature_table) continue;
      for (const std::string& domain : app.domains) {
        if (rules >= rule_total) break;
        const std::string suffix = util::to_lower(domain);
        ++rules;
        rule_index_.emplace(suffix, app.id);  // first app wins on dup suffix
        const std::string reg = util::registrable_domain(suffix);
        const auto [it, inserted] = registrable_index_.emplace(reg, app.id);
        if (!inserted && it->second != app.id) it->second = core::kUnknownApp;
      }
    }
    for (const std::string_view d : appdb::utility_domains())
      utilities_.insert(util::to_lower(d));
    for (const std::string_view d : appdb::advertising_domains())
      advertising_.insert(util::to_lower(d));
    for (const std::string_view d : appdb::analytics_domains())
      analytics_.insert(util::to_lower(d));
  }

  core::EndpointClass classify(std::string_view host) const {
    const std::string lower = util::to_lower(host);
    appdb::AppId app = core::kUnknownApp;
    for (std::string s = lower;;) {
      const auto it = rule_index_.find(s);
      if (it != rule_index_.end()) {
        app = it->second;
        break;
      }
      const auto dot = s.find('.');
      if (dot == std::string::npos) break;
      s = s.substr(dot + 1);
    }
    if (app == core::kUnknownApp) {
      const auto it = registrable_index_.find(util::registrable_domain(lower));
      if (it != registrable_index_.end() && it->second != core::kUnknownApp) {
        app = it->second;
      }
    }
    if (app != core::kUnknownApp) {
      return {appdb::TransactionClass::kApplication, app};
    }
    if (pool_matches(lower, utilities_)) {
      return {appdb::TransactionClass::kUtilities, core::kUnknownApp};
    }
    if (pool_matches(lower, advertising_) || util::has_label(lower, "ads") ||
        util::has_label(lower, "adserver")) {
      return {appdb::TransactionClass::kAdvertising, core::kUnknownApp};
    }
    if (pool_matches(lower, analytics_) ||
        util::has_label(lower, "analytics") ||
        util::has_label(lower, "metrics") ||
        util::has_label(lower, "telemetry")) {
      return {appdb::TransactionClass::kAnalytics, core::kUnknownApp};
    }
    return {appdb::TransactionClass::kApplication, core::kUnknownApp};
  }

 private:
  static bool pool_matches(const std::string& lower,
                           const std::unordered_set<std::string>& pool) {
    for (std::string s = lower;;) {
      if (pool.contains(s)) return true;
      const auto dot = s.find('.');
      if (dot == std::string::npos) return false;
      s = s.substr(dot + 1);
    }
  }

  std::unordered_map<std::string, appdb::AppId> rule_index_;
  std::unordered_map<std::string, appdb::AppId> registrable_index_;
  std::unordered_set<std::string> utilities_;
  std::unordered_set<std::string> advertising_;
  std::unordered_set<std::string> analytics_;
};

/// Seeded corpus of hostname-shaped strings: catalog/pool domains verbatim,
/// with random subdomain prefixes, case flips, typo-like mutations and
/// fully random label chains.  Hostname alphabet only (no whitespace).
std::vector<std::string> fuzz_hosts(const appdb::AppCatalog& catalog,
                                    std::size_t count) {
  util::Pcg32 rng(0xF0CC);
  std::vector<std::string> seeds;
  for (const appdb::AppInfo& app : catalog.apps()) {
    for (const std::string& d : app.domains) seeds.push_back(d);
  }
  for (const std::string_view d : appdb::utility_domains())
    seeds.emplace_back(d);
  for (const std::string_view d : appdb::advertising_domains())
    seeds.emplace_back(d);
  for (const std::string_view d : appdb::analytics_domains())
    seeds.emplace_back(d);
  seeds.insert(seeds.end(),
               {"ads.example.net", "roads.example.net", "metrics.x.co.uk",
                "telemetry.y.com.au", "a.b.c.d.e.example", "localhost",
                "x", "example.co.uk", "weather.com.evil.example"});

  static constexpr std::string_view kLabels[] = {
      "api", "cdn", "www", "edge", "ads", "adserver", "analytics", "metrics",
      "telemetry", "img7", "static", "m", "roads", "co", "uk"};
  const auto random_label = [&rng]() -> std::string {
    std::string s;
    const int len = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < len; ++i) {
      s += static_cast<char>('a' + rng.uniform_int(0, 25));
    }
    return s;
  };

  std::vector<std::string> out;
  out.reserve(count);
  while (out.size() < count) {
    std::string h = seeds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(seeds.size()) - 1))];
    switch (rng.uniform_int(0, 5)) {
      case 0:  // verbatim
        break;
      case 1:  // known subdomain prefix
        h = std::string(kLabels[rng.uniform_int(0, 14)]) + "." + h;
        break;
      case 2:  // random subdomain chain
        h = random_label() + "." + random_label() + "." + h;
        break;
      case 3: {  // random case flips
        for (char& c : h) {
          if (rng.uniform_int(0, 3) == 0) {
            c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
          }
        }
        break;
      }
      case 4: {  // truncate to a suffix (coarsened host)
        const auto dot = h.find('.');
        if (dot != std::string::npos) h = h.substr(dot + 1);
        break;
      }
      default:  // fully random label chain
        h = random_label() + "." + random_label() + "." + random_label();
        break;
    }
    out.push_back(std::move(h));
  }
  return out;
}

TEST(HostClassification, FuzzCorpusAgreesWithOldAllocatingPath) {
  const appdb::AppCatalog catalog(60);
  const core::AppSignatureTable table(catalog);
  const OldStyleClassifier oracle(catalog);
  const std::vector<std::string> corpus = fuzz_hosts(catalog, 5000);
  for (const std::string& host : corpus) {
    const core::EndpointClass got = table.classify_host(host);
    const core::EndpointClass want = oracle.classify(host);
    ASSERT_EQ(got, want) << "divergence on host: " << host;
    // match_app must agree with the classification's app field (pools and
    // label heuristics never set one).
    const auto direct = table.match_app(host);
    EXPECT_EQ(direct.value_or(core::kUnknownApp), want.app) << host;
  }
}

TEST(HostClassification, CacheIsAPureMemo) {
  const appdb::AppCatalog catalog(40);
  const core::AppSignatureTable table(catalog);
  const std::vector<std::string> corpus = fuzz_hosts(catalog, 1000);
  trace::StringPool hosts;
  for (const std::string& host : corpus) (void)hosts.intern(host);
  core::HostClassCache cache(table, hosts);
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& host : corpus) {
      EXPECT_EQ(cache.classify(hosts.intern(host)), table.classify_host(host))
          << host;
    }
  }
  // Second pass (and repeats within the first) must have hit the memo.
  EXPECT_GE(cache.hits(), corpus.size());
  EXPECT_LE(cache.distinct_hosts(), corpus.size());
}

TEST(HostClassification, MappedAppCountMatchesCatalog) {
  const appdb::AppCatalog catalog(40);
  const core::AppSignatureTable table(catalog);
  std::set<appdb::AppId> expected;
  for (const appdb::AppInfo& app : catalog.apps()) {
    if (app.in_signature_table && !app.domains.empty()) expected.insert(app.id);
  }
  EXPECT_EQ(table.mapped_app_count(), expected.size());
}

}  // namespace
}  // namespace wearscope
