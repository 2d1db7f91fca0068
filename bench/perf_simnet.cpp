// Google-benchmark performance suite for the synthetic-ISP generator:
// end-to-end trace generation throughput as the population scales, plus
// the cost of the individual model stages.
#include <benchmark/benchmark.h>

#include "simnet/geography.h"
#include "simnet/mobility.h"
#include "simnet/population.h"
#include "simnet/simulator.h"
#include "simnet/traffic.h"

namespace {

using namespace wearscope;

simnet::SimConfig bench_config(std::int64_t wearables) {
  simnet::SimConfig cfg;
  cfg.seed = 1;
  cfg.wearable_users = static_cast<std::uint32_t>(wearables);
  cfg.control_users = static_cast<std::uint32_t>(wearables * 2);
  cfg.through_device_users = static_cast<std::uint32_t>(wearables / 4 + 1);
  cfg.detailed_days = 14;
  cfg.cities = 6;
  cfg.sectors_per_city = 12;
  cfg.long_tail_apps = 60;
  return cfg;
}

void BM_FullSimulation(benchmark::State& state) {
  const simnet::SimConfig cfg = bench_config(state.range(0));
  std::size_t records = 0;
  for (auto _ : state) {
    const simnet::SimResult r = simnet::Simulator(cfg).run();
    records = r.store.proxy.size() + r.store.mme.size();
    benchmark::DoNotOptimize(records);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records) *
                          state.iterations());
  state.counters["records"] = static_cast<double>(records);
}
BENCHMARK(BM_FullSimulation)->Arg(100)->Arg(400)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_GeographyBuild(benchmark::State& state) {
  simnet::SimConfig cfg = bench_config(100);
  cfg.cities = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    const simnet::Geography geo(cfg, util::Pcg32(7));
    benchmark::DoNotOptimize(geo.sectors().size());
  }
}
BENCHMARK(BM_GeographyBuild)->Arg(6)->Arg(24)->Arg(96);

void BM_PopulationBuild(benchmark::State& state) {
  const simnet::SimConfig cfg = bench_config(state.range(0));
  const appdb::AppCatalog apps(cfg.long_tail_apps);
  const appdb::DeviceModelCatalog devices;
  const simnet::Geography geo(cfg, util::Pcg32(7));
  for (auto _ : state) {
    const simnet::Population pop(cfg, geo, apps, devices, util::Pcg32(8));
    benchmark::DoNotOptimize(pop.subscribers().size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 3);
}
BENCHMARK(BM_PopulationBuild)->Arg(300)->Arg(3000);

void BM_DailyItinerary(benchmark::State& state) {
  const simnet::SimConfig cfg = bench_config(50);
  const appdb::AppCatalog apps(cfg.long_tail_apps);
  const appdb::DeviceModelCatalog devices;
  const simnet::Geography geo(cfg, util::Pcg32(7));
  const simnet::Population pop(cfg, geo, apps, devices, util::Pcg32(8));
  const simnet::MobilityModel mobility(cfg, geo);
  const simnet::Subscriber& sub = pop.subscribers().front();
  util::Pcg32 rng(9);
  int day = 0;
  for (auto _ : state) {
    const simnet::DayItinerary it =
        mobility.build_day(sub, day++ % cfg.observation_days, rng);
    benchmark::DoNotOptimize(it.legs.size());
  }
}
BENCHMARK(BM_DailyItinerary);

void BM_WearableDayGeneration(benchmark::State& state) {
  const simnet::SimConfig cfg = bench_config(50);
  const appdb::AppCatalog apps(cfg.long_tail_apps);
  const appdb::DeviceModelCatalog devices;
  const simnet::Geography geo(cfg, util::Pcg32(7));
  const simnet::Population pop(cfg, geo, apps, devices, util::Pcg32(8));
  const simnet::MobilityModel mobility(cfg, geo);
  const simnet::TrafficModel traffic(cfg, apps);
  // Use a non-silent owner.
  const simnet::Subscriber* sub = nullptr;
  for (const simnet::Subscriber* s :
       pop.of_segment(simnet::Segment::kWearableOwner)) {
    if (!s->silent) {
      sub = s;
      break;
    }
  }
  util::Pcg32 rng(10);
  trace::TraceStore out;
  int day = 0;
  for (auto _ : state) {
    out.proxy.clear();
    simnet::WearableDayPlan plan;
    // Force an active plan by retrying days (planning cost included).
    while (!plan.active) {
      plan = traffic.plan_wearable_day(*sub, day++ % cfg.observation_days, rng);
    }
    const simnet::DayItinerary it = mobility.build_day(*sub, day, rng);
    traffic.generate_wearable_day(*sub, plan, it, rng, out);
    benchmark::DoNotOptimize(out.proxy.size());
  }
}
BENCHMARK(BM_WearableDayGeneration);

}  // namespace

BENCHMARK_MAIN();
