// Google-benchmark performance suite for the columnar work: the analysis
// kernels that gather each user's rows by index, v3 encode/decode
// throughput, and the bounded-memory sketch aggregates against their exact
// counterparts.
//
// `--emit-json[=PATH]` skips google-benchmark and writes the v3
// encode/decode sweep and the sketch-vs-exact deltas to
// BENCH_columnar.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "core/analysis_activity.h"
#include "core/analysis_adoption.h"
#include "core/analysis_diurnal.h"
#include "core/analysis_thirdparty.h"
#include "core/analysis_usage.h"
#include "core/context.h"
#include "par/task_pool.h"
#include "simnet/simulator.h"
#include "sketch/countmin.h"
#include "sketch/hll.h"
#include "sketch/tdigest.h"
#include "trace/columnar_io.h"
#include "trace/log_reader.h"
#include "util/sim_time.h"
#include "util/stats.h"

namespace {

using namespace wearscope;

const simnet::SimResult& shared_capture() {
  static const simnet::SimResult sim = [] {
    simnet::SimConfig cfg;
    cfg.seed = 2;
    cfg.wearable_users = 400;
    cfg.control_users = 800;
    cfg.through_device_users = 100;
    cfg.detailed_days = 14;
    cfg.cities = 6;
    cfg.sectors_per_city = 12;
    cfg.long_tail_apps = 60;
    return simnet::Simulator(cfg).run();
  }();
  return sim;
}

/// One shared context, built once, so the kernel timings measure the
/// passes over the rows, not the context build.
const core::AnalysisContext& shared_context() {
  static const core::AnalysisContext& ctx = []() -> const auto& {
    const simnet::SimResult& sim = shared_capture();
    core::AnalysisOptions opt;
    opt.observation_days = sim.observation_days;
    opt.detailed_start_day = sim.detailed_start_day;
    opt.long_tail_apps = sim.config.long_tail_apps;
    static const core::AnalysisContext context(sim.store, opt);
    return context;
  }();
  return ctx;
}

/// The five analysis kernels BM_KernelColumnar sweeps.
struct Kernel {
  const char* name;
  void (*run)(const core::AnalysisContext&);
};

constexpr Kernel kKernels[] = {
    {"adoption",
     [](const core::AnalysisContext& c) {
       benchmark::DoNotOptimize(core::analyze_adoption(c));
     }},
    {"activity",
     [](const core::AnalysisContext& c) {
       benchmark::DoNotOptimize(core::analyze_activity(c));
     }},
    {"diurnal",
     [](const core::AnalysisContext& c) {
       benchmark::DoNotOptimize(core::analyze_diurnal(c));
     }},
    {"usage",
     [](const core::AnalysisContext& c) {
       benchmark::DoNotOptimize(core::analyze_usage(c));
     }},
    {"thirdparty",
     [](const core::AnalysisContext& c) {
       benchmark::DoNotOptimize(core::analyze_thirdparty(c));
     }},
};

/// Rows per row group: small enough that an 8-thread decode sweep has
/// work on every thread for this capture.
constexpr std::size_t kBenchGroupRecords = 1024;

const std::string& v3_blob() {
  static const std::string blob = [] {
    std::ostringstream out;
    (void)trace::write_columnar_log(out, shared_capture().store.proxy,
                                    shared_capture().store,
                                    kBenchGroupRecords);
    return out.str();
  }();
  return blob;
}

std::span<const std::byte> blob_bytes(const std::string& blob) {
  return std::as_bytes(std::span<const char>(blob.data(), blob.size()));
}

void BM_KernelColumnar(benchmark::State& state) {
  const Kernel& k = kKernels[static_cast<std::size_t>(state.range(0))];
  const core::AnalysisContext& ctx = shared_context();
  state.SetLabel(k.name);
  for (auto _ : state) k.run(ctx);
}
BENCHMARK(BM_KernelColumnar)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

void BM_V3Encode(benchmark::State& state) {
  const auto& records = shared_capture().store.proxy;
  for (auto _ : state) {
    std::ostringstream out;
    (void)trace::write_columnar_log(out, records, shared_capture().store,
                                    kBenchGroupRecords);
    benchmark::DoNotOptimize(out.str().size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(records.size()) * state.iterations());
}
BENCHMARK(BM_V3Encode)->Unit(benchmark::kMillisecond);

void BM_V3Decode(benchmark::State& state) {
  const auto& records = shared_capture().store.proxy;
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  par::TaskPool pool(threads);
  for (auto _ : state) {
    trace::ProxyPools pools;
    benchmark::DoNotOptimize(
        trace::read_binary_log<trace::ProxyRecord>(
            blob_bytes(v3_blob()), pools, threads > 1 ? &pool : nullptr)
            .size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(records.size()) * state.iterations());
  state.SetBytesProcessed(
      static_cast<std::int64_t>(v3_blob().size()) * state.iterations());
}
BENCHMARK(BM_V3Decode)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SketchIngest(benchmark::State& state) {
  // The per-record cost of the bounded-memory live mode: one HLL add, one
  // t-digest add and one heavy-hitter add per wearable transaction.
  const trace::TraceStore& store = shared_capture().store;
  const auto& records = store.proxy;
  for (auto _ : state) {
    sketch::Hll users;
    sketch::TDigest sizes;
    sketch::HeavyHitters apps;
    for (const trace::ProxyRecord& r : records) {
      users.add(r.user_id);
      sizes.add(static_cast<double>(r.bytes_total()));
      apps.add(store.hosts[r.host_id]);
    }
    benchmark::DoNotOptimize(users.estimate());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(records.size()) * state.iterations());
}
BENCHMARK(BM_SketchIngest)->Unit(benchmark::kMillisecond);

/// Sketch-vs-exact deltas over the capture's wearable traffic — the same
/// populations the live gate tests pin: registered users (wearable MME),
/// detailed-window transaction sizes, per-app transaction counts.
struct SketchDeltas {
  std::size_t exact_users = 0;
  double hll_estimate = 0.0;
  double hll_error_pct = 0.0;
  double p50_error_pct = 0.0;
  double p95_error_pct = 0.0;
  double p99_error_pct = 0.0;
  bool topk_superset = true;
  std::size_t sketch_bytes = 0;
};

SketchDeltas sketch_vs_exact() {
  const simnet::SimResult& sim = shared_capture();
  const core::AnalysisContext& ctx = shared_context();
  const util::SimTime detailed_start = util::day_start(sim.detailed_start_day);

  sketch::Hll hll;
  std::unordered_set<trace::UserId> exact_users;
  for (const trace::MmeRecord& r : sim.store.mme) {
    if (!ctx.devices().is_wearable(r.tac)) continue;
    hll.add(r.user_id);
    exact_users.insert(r.user_id);
  }

  sketch::TDigest digest;
  sketch::HeavyHitters hitters;
  std::vector<double> sizes;
  std::unordered_map<std::string, std::uint64_t> exact_apps;
  core::HostClassCache host_class(ctx.signatures(), sim.store.hosts);
  for (const trace::ProxyRecord& r : sim.store.proxy) {
    if (!ctx.devices().is_wearable(r.tac)) continue;
    if (r.timestamp >= detailed_start) {
      digest.add(static_cast<double>(r.bytes_total()));
      sizes.push_back(static_cast<double>(r.bytes_total()));
    }
    const core::EndpointClass cls = host_class.classify(r.host_id);
    if (cls.cls != appdb::TransactionClass::kApplication) continue;
    const std::string name(ctx.signatures().app_name(cls.app));
    hitters.add(name);
    exact_apps[name] += 1;
  }
  const util::Ecdf ecdf(std::move(sizes));

  SketchDeltas d;
  d.exact_users = exact_users.size();
  d.hll_estimate = hll.estimate();
  d.hll_error_pct =
      exact_users.empty()
          ? 0.0
          : 100.0 * std::abs(d.hll_estimate -
                             static_cast<double>(exact_users.size())) /
                static_cast<double>(exact_users.size());
  const auto q_err = [&](double q) {
    const double exact = ecdf.quantile(q);
    return exact > 0.0 ? 100.0 * std::abs(digest.quantile(q) - exact) / exact
                       : 0.0;
  };
  d.p50_error_pct = q_err(0.50);
  d.p95_error_pct = q_err(0.95);
  d.p99_error_pct = q_err(0.99);

  // Top-K superset: every app strictly heavier than the exact K-th count
  // must surface in the sketch's top K (ties at the boundary may fall
  // either side).
  constexpr std::size_t kTop = 10;
  std::vector<std::uint64_t> counts;
  counts.reserve(exact_apps.size());
  for (const auto& [name, count] : exact_apps) counts.push_back(count);
  std::sort(counts.begin(), counts.end(), std::greater<>());
  const std::uint64_t kth =
      counts.size() < kTop ? 0 : counts[kTop - 1];
  std::unordered_set<std::string> reported;
  for (const auto& [name, count] : hitters.top(kTop)) reported.insert(name);
  // Order-independent conjunction: any missing heavy app flips the flag,
  // regardless of the order the apps are visited in.
  // wearscope-lint: allow(unordered-emit)
  for (const auto& [name, count] : exact_apps) {
    if (count > kth && !reported.contains(name)) d.topk_superset = false;
  }

  d.sketch_bytes =
      hll.memory_bytes() + digest.memory_bytes() + hitters.memory_bytes();
  return d;
}

/// --emit-json mode: the v3 encode time, the v3 decoder thread sweep and
/// the sketch-vs-exact deltas, best of `kReps` runs per timed point.
int emit_json(const std::string& path) {
  using Clock = std::chrono::steady_clock;
  constexpr int kReps = 5;
  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  const simnet::SimResult& sim = shared_capture();

  const auto best_of = [&](const auto& fn) {
    double best_ms = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const Clock::time_point t0 = Clock::now();
      fn();
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      if (rep == 0 || ms < best_ms) best_ms = ms;
    }
    return best_ms;
  };

  std::fprintf(out, "{\n  \"bench\": \"perf_columnar\",\n");
  std::fprintf(out, "  \"records\": %llu,\n",
               static_cast<unsigned long long>(sim.store.proxy.size() +
                                               sim.store.mme.size()));

  const double v3_encode_ms = best_of([&] {
    std::ostringstream enc;
    (void)trace::write_columnar_log(enc, sim.store.proxy, sim.store,
                                    kBenchGroupRecords);
    benchmark::DoNotOptimize(enc.str().size());
  });
  std::fprintf(out, "  \"encode\": {\"v3_ms\": %.2f, \"v3_bytes\": %llu},\n",
               v3_encode_ms,
               static_cast<unsigned long long>(v3_blob().size()));
  std::printf("encode: v3 %.2f ms (%zu bytes)\n", v3_encode_ms,
              v3_blob().size());

  std::fprintf(out, "  \"decode\": [\n");
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    const std::size_t threads = thread_counts[i];
    par::TaskPool pool(threads);
    par::TaskPool* pool_ptr = threads > 1 ? &pool : nullptr;
    const double v3_ms = best_of([&] {
      trace::ProxyPools pools;
      benchmark::DoNotOptimize(trace::read_binary_log<trace::ProxyRecord>(
                                   blob_bytes(v3_blob()), pools, pool_ptr)
                                   .size());
    });
    std::fprintf(out, "    {\"threads\": %zu, \"v3_ms\": %.2f}%s\n", threads,
                 v3_ms, i + 1 < thread_counts.size() ? "," : "");
    std::printf("decode, %zu thread(s): v3 %.2f ms\n", threads, v3_ms);
  }
  std::fprintf(out, "  ],\n");

  const SketchDeltas d = sketch_vs_exact();
  std::fprintf(out,
               "  \"sketch\": {\"exact_distinct_users\": %zu, "
               "\"hll_estimate\": %.1f, \"hll_error_pct\": %.3f, "
               "\"p50_error_pct\": %.3f, \"p95_error_pct\": %.3f, "
               "\"p99_error_pct\": %.3f, \"topk_superset\": %s, "
               "\"sketch_bytes\": %zu},\n",
               d.exact_users, d.hll_estimate, d.hll_error_pct,
               d.p50_error_pct, d.p95_error_pct, d.p99_error_pct,
               d.topk_superset ? "true" : "false", d.sketch_bytes);
  std::printf("sketch: users %zu exact vs %.1f HLL (%.2f%%), txn-size "
              "quantile errors p50 %.2f%% p95 %.2f%% p99 %.2f%%, top-10 "
              "superset %s, %zu sketch bytes\n",
              d.exact_users, d.hll_estimate, d.hll_error_pct, d.p50_error_pct,
              d.p95_error_pct, d.p99_error_pct,
              d.topk_superset ? "yes" : "NO", d.sketch_bytes);

  // Peak RSS last: it is a high-water mark over everything measured above.
  bench::emit_hardware_concurrency(out);
  std::fprintf(out, "  \"done\": true\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--emit-json", 11) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return emit_json(eq != nullptr ? eq + 1 : "BENCH_columnar.json");
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
