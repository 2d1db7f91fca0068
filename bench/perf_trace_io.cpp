// Google-benchmark performance suite for trace serialization: binary v1,
// blocked v2 and CSV encode/decode throughput on realistic proxy-log
// records.  Both binary decodes read an mmap'ed file through
// trace::read_binary_log — the exact production path of load_bundle — and
// the v2 decode is swept across TaskPool sizes.
//
// `--emit-json[=PATH]` skips google-benchmark and writes a v1-vs-v2
// encode/decode summary plus the decoder thread sweep to
// BENCH_trace_io.json, mirroring perf_analysis's emit mode.  Decode
// speedups are relative to the sequential v1 read of the same records.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "par/task_pool.h"
#include "simnet/simulator.h"
#include "trace/block_io.h"
#include "trace/csv_io.h"
#include "trace/log_reader.h"
#include "util/mapped_file.h"

namespace {

using namespace wearscope;

/// The sample capture: its proxy rows and the pools their ids index.
const trace::TraceStore& sample_store() {
  static const trace::TraceStore store = [] {
    simnet::SimConfig cfg;
    cfg.seed = 3;
    cfg.wearable_users = 100;
    cfg.control_users = 200;
    cfg.through_device_users = 20;
    cfg.detailed_days = 7;
    cfg.cities = 4;
    cfg.sectors_per_city = 8;
    cfg.long_tail_apps = 30;
    simnet::SimResult sim = simnet::Simulator(cfg).run();
    sim.store.proxy.resize(std::min<std::size_t>(sim.store.proxy.size(),
                                                 20000));
    return std::move(sim.store);
  }();
  return store;
}

const trace::Rows<trace::ProxyRecord>& sample_records() {
  return sample_store().proxy;
}

/// Block size small enough that an 8-thread sweep has work on every
/// thread even for this 20k-record sample (~20 blocks).
trace::BlockWriterOptions bench_block_options() {
  trace::BlockWriterOptions options;
  options.max_block_records = 1024;
  return options;
}

const std::string& v1_blob() {
  static const std::string blob = [] {
    std::ostringstream out;
    trace::BinaryLogWriter<trace::ProxyRecord> writer(out, sample_store());
    for (const trace::ProxyRecord& r : sample_records()) writer.write(r);
    return out.str();
  }();
  return blob;
}

const std::string& v2_blob() {
  static const std::string blob = [] {
    std::ostringstream out;
    trace::BlockLogWriter<trace::ProxyRecord> writer(out, sample_store(),
                                                     bench_block_options());
    for (const trace::ProxyRecord& r : sample_records()) writer.write(r);
    writer.finish();
    return out.str();
  }();
  return blob;
}

/// Writes `blob` next to the other bench inputs and returns its path.
std::filesystem::path bench_file(const char* name, const std::string& blob) {
  const std::filesystem::path p = std::filesystem::temp_directory_path() / name;
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << blob;
  return p;
}

/// The blobs on disk: decode benchmarks measure the full file-to-records
/// production paths, not in-memory parsing.
const std::filesystem::path& v1_file() {
  static const std::filesystem::path path =
      bench_file("wearscope_perf_trace_io_v1.bin", v1_blob());
  return path;
}

const std::filesystem::path& v2_file() {
  static const std::filesystem::path path =
      bench_file("wearscope_perf_trace_io_v2.bin", v2_blob());
  return path;
}

/// The v1 production load path: mmap + one sequential record decode (v1
/// has no framing to split across threads).
std::size_t drain_v1_mmap() {
  const util::MappedFile file(v1_file(), util::MapMode::kAuto);
  trace::ProxyPools pools;
  return trace::read_binary_log<trace::ProxyRecord>(file.bytes(), pools)
      .size();
}

/// The v2 production load path: mmap + frame scan + (parallel) block
/// decode into a log sized without writing (trace::Rows).
std::size_t drain_v2_mmap(par::TaskPool* pool) {
  const util::MappedFile file(v2_file(), util::MapMode::kAuto);
  trace::ProxyPools pools;
  return trace::read_binary_log<trace::ProxyRecord>(file.bytes(), pools, pool)
      .size();
}

void BM_BinaryEncode(benchmark::State& state) {
  const auto& records = sample_records();
  for (auto _ : state) {
    std::ostringstream out;
    trace::BinaryLogWriter<trace::ProxyRecord> writer(out, sample_store());
    for (const trace::ProxyRecord& r : records) writer.write(r);
    benchmark::DoNotOptimize(out.str().size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(records.size()) * state.iterations());
}
BENCHMARK(BM_BinaryEncode)->Unit(benchmark::kMillisecond);

void BM_V2Encode(benchmark::State& state) {
  const auto& records = sample_records();
  for (auto _ : state) {
    std::ostringstream out;
    trace::BlockLogWriter<trace::ProxyRecord> writer(out, sample_store(),
                                                     bench_block_options());
    for (const trace::ProxyRecord& r : records) writer.write(r);
    writer.finish();
    benchmark::DoNotOptimize(out.str().size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(records.size()) * state.iterations());
}
BENCHMARK(BM_V2Encode)->Unit(benchmark::kMillisecond);

void BM_BinaryDecode(benchmark::State& state) {
  const auto& records = sample_records();
  for (auto _ : state) {
    benchmark::DoNotOptimize(drain_v1_mmap());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(records.size()) * state.iterations());
  state.SetBytesProcessed(
      static_cast<std::int64_t>(v1_blob().size()) * state.iterations());
}
BENCHMARK(BM_BinaryDecode)->Unit(benchmark::kMillisecond);

void BM_V2DecodeMmap(benchmark::State& state) {
  const auto& records = sample_records();
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  // The pool persists across iterations (its workers park between runs);
  // mapping the file stays inside the timed region, as in load_bundle.
  par::TaskPool pool(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(drain_v2_mmap(threads > 1 ? &pool : nullptr));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(records.size()) * state.iterations());
  state.SetBytesProcessed(
      static_cast<std::int64_t>(v2_blob().size()) * state.iterations());
}
BENCHMARK(BM_V2DecodeMmap)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CsvEncode(benchmark::State& state) {
  const auto& records = sample_records();
  for (auto _ : state) {
    std::ostringstream out;
    trace::CsvLogWriter<trace::ProxyRecord> writer(out, sample_store());
    for (const trace::ProxyRecord& r : records) writer.write(r);
    benchmark::DoNotOptimize(out.str().size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(records.size()) * state.iterations());
}
BENCHMARK(BM_CsvEncode)->Unit(benchmark::kMillisecond);

void BM_CsvDecode(benchmark::State& state) {
  const auto& records = sample_records();
  std::ostringstream out;
  {
    trace::CsvLogWriter<trace::ProxyRecord> writer(out, sample_store());
    for (const trace::ProxyRecord& r : records) writer.write(r);
  }
  const std::string blob = out.str();
  for (auto _ : state) {
    std::istringstream in(blob);
    trace::ProxyPools pools;
    trace::CsvLogReader<trace::ProxyRecord> reader(in, pools);
    trace::ProxyRecord r;
    std::size_t n = 0;
    while (reader.next(r)) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(records.size()) * state.iterations());
}
BENCHMARK(BM_CsvDecode)->Unit(benchmark::kMillisecond);

void BM_StoreSort(benchmark::State& state) {
  const auto& records = sample_records();
  for (auto _ : state) {
    state.PauseTiming();
    trace::TraceStore store;
    store.proxy = records;
    // Shuffle deterministically so sort has work to do.
    util::Pcg32 rng(4);
    rng.shuffle(store.proxy);
    state.ResumeTiming();
    store.sort_by_time();
    benchmark::DoNotOptimize(store.proxy.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(records.size()) * state.iterations());
}
BENCHMARK(BM_StoreSort)->Unit(benchmark::kMillisecond);

/// The same rows already in canonical order: the case every generated
/// bundle hits on load, where sort_by_time only checks the order.
void BM_StoreSortSorted(benchmark::State& state) {
  trace::Rows<trace::ProxyRecord> sorted = sample_records();
  std::stable_sort(sorted.begin(), sorted.end(), trace::ByTimeThenUser{});
  for (auto _ : state) {
    state.PauseTiming();
    trace::TraceStore store;
    store.proxy = sorted;
    state.ResumeTiming();
    store.sort_by_time();
    benchmark::DoNotOptimize(store.proxy.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(sorted.size()) * state.iterations());
}
BENCHMARK(BM_StoreSortSorted)->Unit(benchmark::kMillisecond);

/// --emit-json mode: v1-vs-v2 encode/decode wall clock plus the v2 mmap
/// decoder thread sweep, best of `kReps` runs per point.  Decode speedups
/// are relative to the sequential v1 mmap read.
int emit_json(const std::string& path) {
  using Clock = std::chrono::steady_clock;
  constexpr int kReps = 3;
  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  const auto& records = sample_records();
  const std::string& v1 = v1_blob();
  const std::string& v2 = v2_blob();
  (void)v1_file();  // materialize the on-disk copies (and warm the page
  (void)v2_file();  // cache) before timing

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

  const double v1_encode_ms = best_of([&] {
    std::ostringstream enc;
    trace::BinaryLogWriter<trace::ProxyRecord> writer(enc, sample_store());
    for (const trace::ProxyRecord& r : records) writer.write(r);
    benchmark::DoNotOptimize(enc.str().size());
  });
  const double v2_encode_ms = best_of([&] {
    std::ostringstream enc;
    trace::BlockLogWriter<trace::ProxyRecord> writer(enc, sample_store(),
                                                     bench_block_options());
    for (const trace::ProxyRecord& r : records) writer.write(r);
    writer.finish();
    benchmark::DoNotOptimize(enc.str().size());
  });
  const double v1_decode_ms =
      best_of([&] { benchmark::DoNotOptimize(drain_v1_mmap()); });

  std::fprintf(out, "{\n  \"bench\": \"perf_trace_io\",\n");
  bench::emit_hardware_concurrency(out);
  std::fprintf(out, "  \"records\": %llu,\n",
               static_cast<unsigned long long>(records.size()));
  std::fprintf(out, "  \"v1_bytes\": %llu,\n",
               static_cast<unsigned long long>(v1.size()));
  std::fprintf(out, "  \"v2_bytes\": %llu,\n",
               static_cast<unsigned long long>(v2.size()));
  std::fprintf(out, "  \"encode\": {\"v1_ms\": %.2f, \"v2_ms\": %.2f},\n",
               v1_encode_ms, v2_encode_ms);
  std::fprintf(out, "  \"v1_decode_ms\": %.2f,\n", v1_decode_ms);
  std::fprintf(out, "  \"v2_decode\": [\n");
  std::printf("encode: v1 %.2f ms, v2 %.2f ms; v1 mmap decode %.2f ms\n",
              v1_encode_ms, v2_encode_ms, v1_decode_ms);
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    const std::size_t threads = thread_counts[i];
    par::TaskPool pool(threads);
    const double ms = best_of([&] {
      benchmark::DoNotOptimize(drain_v2_mmap(threads > 1 ? &pool : nullptr));
    });
    const double speedup = ms > 0.0 ? v1_decode_ms / ms : 0.0;
    std::fprintf(out,
                 "    {\"threads\": %zu, \"mmap_ms\": %.2f, "
                 "\"speedup_vs_v1\": %.2f}%s\n",
                 threads, ms, speedup,
                 i + 1 < thread_counts.size() ? "," : "");
    std::printf("v2 mmap decode, %zu thread(s): %.2f ms (%.2fx vs v1)\n",
                threads, ms, speedup);
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
      return emit_json(eq != nullptr ? eq + 1 : "BENCH_trace_io.json");
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
