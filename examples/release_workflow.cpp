// Release workflow: how an ISP research team would share results from a
// capture they cannot publish raw (paper §3.5 ethics constraints):
//
//   1. anonymize the capture (keyed user-id re-hash, host coarsening,
//      timestamp quantization, URL-path drop);
//   2. verify the anonymized copy still supports the full study;
//   3. emit the shareable artifacts: the anonymized bundle plus a
//      paper-vs-measured Markdown report.
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/pipeline.h"
#include "core/report_markdown.h"
#include "simnet/simulator.h"
#include "trace/anonymize.h"
#include "trace/bundle.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace wearscope;
  std::string preset = "small";
  std::int64_t seed = 42;
  std::int64_t key = 20260708;
  std::string out = "";
  util::FlagParser flags("release workflow: anonymize, re-verify, publish");
  flags.add_string("preset", &preset, "small|standard|paper");
  flags.add_int("seed", &seed, "generator seed");
  flags.add_int("key", &key, "anonymization key (keep secret!)");
  flags.add_string("out", &out,
                   "output directory (default: temp directory)");
  if (!flags.parse(argc, argv)) return 0;
  const std::filesystem::path out_dir =
      out.empty() ? std::filesystem::temp_directory_path() /
                        "wearscope_release"
                  : std::filesystem::path(out);

  // The "internal" capture.
  simnet::SimConfig cfg = simnet::SimConfig::preset(preset);
  cfg.seed = static_cast<std::uint64_t>(seed);
  const simnet::SimResult sim = simnet::Simulator(cfg).run();
  std::printf("internal capture: %zu proxy records\n",
              sim.store.proxy.size());

  // 1. Anonymize.
  trace::TraceStore anon = sim.store;
  trace::AnonymizePolicy policy;
  policy.key = static_cast<std::uint64_t>(key);
  policy.time_quantum_s = 5;
  trace::anonymize(anon, policy);
  std::printf("anonymized: ids re-keyed, hosts coarsened, paths dropped, "
              "timestamps floored to %llds\n",
              static_cast<long long>(policy.time_quantum_s));

  // 2. Re-verify: the study must still hold on the release copy.
  core::AnalysisOptions opt;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.detailed_start_day;
  opt.long_tail_apps = cfg.long_tail_apps;
  const core::Pipeline pipeline(anon, opt);
  const core::StudyReport report = pipeline.run();
  std::size_t checks = 0;
  for (const core::FigureData& f : report.figures) checks += f.checks.size();
  std::printf("re-verified on the anonymized copy: %zu/%zu checks pass "
              "(unknown traffic %.1f%% after host coarsening)\n",
              checks - report.failed_checks(), checks,
              100.0 * report.apps.unknown_traffic_fraction);

  // 3. Publish.
  trace::save_bundle(anon, out_dir / "bundle");
  core::MarkdownMeta meta;
  meta.title = "WearScope release report (anonymized capture)";
  meta.preset = preset;
  meta.seed = std::to_string(seed);
  meta.extra = "All identifiers re-keyed; endpoint hosts coarsened to "
               "registrable domains; URL paths removed.";
  std::ofstream md(out_dir / "report.md");
  md << core::to_markdown(report, meta);
  std::printf("release artifacts in %s: bundle/ + report.md\n",
              out_dir.c_str());
  return 0;
}
