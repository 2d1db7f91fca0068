// Google-benchmark performance suite for trace serialization: CSV
// encode/decode throughput on realistic proxy-log records, and the store's
// canonical sort on shuffled and already sorted rows.  The binary v3
// encode/decode sweep lives in perf_columnar; v1 and v2 are read-only
// formats with no writer to time.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "simnet/simulator.h"
#include "trace/csv_io.h"
#include "util/rng.h"

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
    static_cast<trace::ProxyPools&>(store) = sample_store();
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
    static_cast<trace::ProxyPools&>(store) = sample_store();
    store.proxy = sorted;
    state.ResumeTiming();
    store.sort_by_time();
    benchmark::DoNotOptimize(store.proxy.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(sorted.size()) * state.iterations());
}
BENCHMARK(BM_StoreSortSorted)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
