// Quickstart: the whole system in ~60 lines.
//
//   1. Synthesize a small mobile-ISP capture (the paper's three vantage
//      points: transparent proxy, MME, DeviceDB).
//   2. Persist it to disk and load it back (the logs are the only interface
//      between generation and analysis).
//   3. Run the full analysis pipeline and print every figure's
//      paper-vs-measured checks.
//
// Run:  ./quickstart [--preset small|standard|paper] [--seed N]
#include <cstdio>
#include <filesystem>

#include "core/pipeline.h"
#include "simnet/simulator.h"
#include "trace/bundle.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace wearscope;
  std::string preset = "standard";
  std::int64_t seed = 42;
  util::FlagParser flags("wearscope quickstart: simulate -> persist -> analyze");
  flags.add_string("preset", &preset, "small|standard|paper");
  flags.add_int("seed", &seed, "generator seed");
  if (!flags.parse(argc, argv)) return 0;

  // 1. Simulate the ISP.
  simnet::SimConfig cfg = simnet::SimConfig::preset(preset);
  cfg.seed = static_cast<std::uint64_t>(seed);
  const simnet::SimResult sim = simnet::Simulator(cfg).run();
  const trace::TraceSummary sum = sim.store.summarize();
  std::printf("simulated %zu proxy transactions, %zu MME events, "
              "%zu users, %.1f GB\n",
              sum.proxy_records, sum.mme_records, sum.distinct_mme_users,
              static_cast<double>(sum.total_bytes) / 1e9);

  // 2. Round-trip the capture through the on-disk bundle format.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "wearscope_quickstart";
  trace::save_bundle(sim.store, dir);
  const trace::TraceStore logs = trace::load_bundle(dir);
  std::printf("bundle round-trip via %s\n", dir.c_str());

  // 3. Analyze: the pipeline sees only the logs, like the paper's authors.
  core::AnalysisOptions opt;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.detailed_start_day;
  opt.long_tail_apps = cfg.long_tail_apps;
  const core::Pipeline pipeline(logs, opt);
  const core::StudyReport report = pipeline.run();
  std::fputs(report.to_text().c_str(), stdout);

  std::printf("== takeaways ==\n");
  std::printf("only %.0f%% of wearable users transmit data (paper: 34%%)\n",
              100.0 * report.adoption.ever_transacting_fraction);
  std::printf("owners: +%.0f%% data, +%.0f%% transactions (paper: +26/+48)\n",
              100.0 * (report.comparison.data_ratio - 1.0),
              100.0 * (report.comparison.txn_ratio - 1.0));
  std::printf("wearable users roam %.1fx farther (paper: ~2x)\n",
              report.mobility.displacement_ratio);
  std::printf("%zu of %zu checks passed\n",
              [&] {
                std::size_t total = 0;
                for (const auto& f : report.figures) total += f.checks.size();
                return total - report.failed_checks();
              }(),
              [&] {
                std::size_t total = 0;
                for (const auto& f : report.figures) total += f.checks.size();
                return total;
              }());
  return report.failed_checks() == 0 ? 0 : 1;
}
