// Google-benchmark performance suite for the analysis pipeline: context
// indexing (device classification + app attribution + sessionization) and
// each per-figure analysis over a fixed synthetic capture.
//
// `--emit-json[=PATH]` skips google-benchmark and writes a thread-sweep
// summary (context build + analysis wall clock at 1/2/4/8 threads) to
// BENCH_analysis.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bench_common.h"
#include "core/pipeline.h"
#include "core/streaming.h"
#include "simnet/simulator.h"
#include "util/sched_hook.h"

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

core::AnalysisOptions shared_options(int threads = 1) {
  const simnet::SimResult& sim = shared_capture();
  core::AnalysisOptions opt;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.detailed_start_day;
  opt.long_tail_apps = sim.config.long_tail_apps;
  opt.threads = threads;
  return opt;
}

const core::AnalysisContext& shared_context() {
  static const core::AnalysisContext ctx(shared_capture().store,
                                         shared_options());
  return ctx;
}

void BM_ContextBuild(benchmark::State& state) {
  const simnet::SimResult& sim = shared_capture();
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const core::AnalysisContext ctx(sim.store, shared_options(threads));
    benchmark::DoNotOptimize(ctx.users().size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(sim.store.proxy.size()) * state.iterations());
}
BENCHMARK(BM_ContextBuild)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_HostClassification(benchmark::State& state) {
  const core::AnalysisContext& ctx = shared_context();
  const simnet::SimResult& sim = shared_capture();
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& host =
        sim.store.hosts[sim.store.proxy[i % sim.store.proxy.size()].host_id];
    benchmark::DoNotOptimize(ctx.signatures().classify_host(host));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostClassification);

void BM_HostClassificationCached(benchmark::State& state) {
  const core::AnalysisContext& ctx = shared_context();
  const simnet::SimResult& sim = shared_capture();
  core::HostClassCache cache(ctx.signatures(), sim.store.hosts);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint32_t host =
        sim.store.proxy[i % sim.store.proxy.size()].host_id;
    benchmark::DoNotOptimize(cache.classify(host));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HostClassificationCached);

template <typename Fn>
void run_analysis_bench(benchmark::State& state, Fn&& fn) {
  const core::AnalysisContext& ctx = shared_context();
  for (auto _ : state) {
    auto result = fn(ctx);
    benchmark::DoNotOptimize(&result);
  }
}

void BM_AnalyzeAdoption(benchmark::State& state) {
  run_analysis_bench(state, core::analyze_adoption);
}
BENCHMARK(BM_AnalyzeAdoption)->Unit(benchmark::kMillisecond);

void BM_AnalyzeDiurnal(benchmark::State& state) {
  run_analysis_bench(state, core::analyze_diurnal);
}
BENCHMARK(BM_AnalyzeDiurnal)->Unit(benchmark::kMillisecond);

void BM_AnalyzeActivity(benchmark::State& state) {
  run_analysis_bench(state, core::analyze_activity);
}
BENCHMARK(BM_AnalyzeActivity)->Unit(benchmark::kMillisecond);

void BM_AnalyzeComparison(benchmark::State& state) {
  run_analysis_bench(state, core::analyze_comparison);
}
BENCHMARK(BM_AnalyzeComparison)->Unit(benchmark::kMillisecond);

void BM_AnalyzeMobility(benchmark::State& state) {
  run_analysis_bench(state, core::analyze_mobility);
}
BENCHMARK(BM_AnalyzeMobility)->Unit(benchmark::kMillisecond);

void BM_AnalyzeApps(benchmark::State& state) {
  run_analysis_bench(state, core::analyze_apps);
}
BENCHMARK(BM_AnalyzeApps)->Unit(benchmark::kMillisecond);

void BM_AnalyzeThirdparty(benchmark::State& state) {
  run_analysis_bench(state, core::analyze_thirdparty);
}
BENCHMARK(BM_AnalyzeThirdparty)->Unit(benchmark::kMillisecond);

void BM_AnalyzeThroughDevice(benchmark::State& state) {
  run_analysis_bench(state, core::analyze_throughdevice);
}
BENCHMARK(BM_AnalyzeThroughDevice)->Unit(benchmark::kMillisecond);

void BM_AnalyzeCohorts(benchmark::State& state) {
  run_analysis_bench(state, core::analyze_cohorts);
}
BENCHMARK(BM_AnalyzeCohorts)->Unit(benchmark::kMillisecond);

void BM_AnalyzeRetention(benchmark::State& state) {
  run_analysis_bench(state, core::analyze_retention);
}
BENCHMARK(BM_AnalyzeRetention)->Unit(benchmark::kMillisecond);

void BM_AnalyzeGeography(benchmark::State& state) {
  run_analysis_bench(state, [](const core::AnalysisContext& ctx) {
    return core::analyze_geography(ctx);
  });
}
BENCHMARK(BM_AnalyzeGeography)->Unit(benchmark::kMillisecond);

void BM_StreamingAdoption(benchmark::State& state) {
  const simnet::SimResult& sim = shared_capture();
  const core::DeviceClassifier devices(sim.store.devices);
  for (auto _ : state) {
    core::StreamingAdoption streaming(devices, sim.observation_days);
    for (const trace::MmeRecord& r : sim.store.mme) streaming.on_mme(r);
    for (const trace::ProxyRecord& r : sim.store.proxy) streaming.on_proxy(r);
    const core::AdoptionResult res = streaming.finalize();
    benchmark::DoNotOptimize(res.ever_registered);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(sim.store.mme.size() +
                                sim.store.proxy.size()) *
      state.iterations());
}
BENCHMARK(BM_StreamingAdoption)->Unit(benchmark::kMillisecond);

void BM_FullPipeline(benchmark::State& state) {
  const simnet::SimResult& sim = shared_capture();
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const core::Pipeline pipeline(sim.store, shared_options(threads));
    const core::StudyReport rep = pipeline.run();
    benchmark::DoNotOptimize(rep.figures.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(sim.store.proxy.size()) * state.iterations());
}
BENCHMARK(BM_FullPipeline)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SchedHookPassthrough(benchmark::State& state) {
  // The entire production cost of the deterministic-scheduler hook layer
  // (util/sched_hook.h) is one atomic null load per choice point; this
  // guards the "zero cost when no scheduler is attached" claim.  The
  // batch task pool's mutex and condition variable cross such points.
  int probe = 0;
  for (auto _ : state) {
    util::sched::point(util::sched::Op::kUserPoint, &probe);
    benchmark::DoNotOptimize(probe);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SchedHookPassthrough);

/// --emit-json mode: thread sweep over the batch pipeline, best of `kReps`
/// runs per point.  Context build and analysis passes are timed separately
/// (they parallelize differently); speedups are relative to 1 thread.
int emit_json(const std::string& path) {
  using Clock = std::chrono::steady_clock;
  constexpr int kReps = 3;
  const std::vector<int> thread_counts = {1, 2, 4, 8};

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  const simnet::SimResult& sim = shared_capture();
  const std::uint64_t records = sim.store.proxy.size() + sim.store.mme.size();
  std::fprintf(out, "{\n  \"bench\": \"perf_analysis\",\n");
  bench::emit_hardware_concurrency(out);
  std::fprintf(out, "  \"records\": %llu,\n",
               static_cast<unsigned long long>(records));
  std::fprintf(out, "  \"threads\": [\n");
  double context_ms_1t = 0.0;
  double run_ms_1t = 0.0;
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    const int threads = thread_counts[i];
    double best_context_ms = 0.0;
    double best_run_ms = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const Clock::time_point t0 = Clock::now();
      const core::Pipeline pipeline(sim.store, shared_options(threads));
      const Clock::time_point t1 = Clock::now();
      const core::StudyReport rep_out = pipeline.run();
      const Clock::time_point t2 = Clock::now();
      benchmark::DoNotOptimize(rep_out.figures.size());
      const double context_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      const double run_ms =
          std::chrono::duration<double, std::milli>(t2 - t1).count();
      if (rep == 0 || context_ms < best_context_ms)
        best_context_ms = context_ms;
      if (rep == 0 || run_ms < best_run_ms) best_run_ms = run_ms;
    }
    if (threads == 1) {
      context_ms_1t = best_context_ms;
      run_ms_1t = best_run_ms;
    }
    const double speedup =
        best_context_ms + best_run_ms > 0.0
            ? (context_ms_1t + run_ms_1t) / (best_context_ms + best_run_ms)
            : 0.0;
    std::fprintf(out,
                 "    {\"threads\": %d, \"context_ms\": %.2f, "
                 "\"run_ms\": %.2f, \"speedup_vs_1t\": %.2f}%s\n",
                 threads, best_context_ms, best_run_ms, speedup,
                 i + 1 < thread_counts.size() ? "," : "");
    std::printf("threads=%d: context %.2f ms, analyses %.2f ms (%.2fx)\n",
                threads, best_context_ms, best_run_ms, speedup);
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--emit-json", 11) == 0) {
      const char* eq = std::strchr(argv[i], '=');
      return emit_json(eq != nullptr ? eq + 1 : "BENCH_analysis.json");
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
