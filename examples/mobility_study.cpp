// Mobility study (paper §4.4 / Fig. 4c-d): max-displacement distributions,
// dwell-weighted location entropy under both normalizations, and the
// single-location phenomenon — demonstrating the lower-level analysis API
// (AnalysisContext + per-user helpers) beyond the packaged Pipeline.
#include <cstdio>

#include "core/analysis_mobility.h"
#include "core/context.h"
#include "simnet/simulator.h"
#include "util/ascii_chart.h"
#include "util/flags.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace wearscope;
  std::string preset = "standard";
  std::int64_t seed = 42;
  util::FlagParser flags("mobility study over the detailed window");
  flags.add_string("preset", &preset, "small|standard|paper");
  flags.add_int("seed", &seed, "generator seed");
  if (!flags.parse(argc, argv)) return 0;

  simnet::SimConfig cfg = simnet::SimConfig::preset(preset);
  cfg.seed = static_cast<std::uint64_t>(seed);
  const simnet::SimResult sim = simnet::Simulator(cfg).run();

  core::AnalysisOptions opt;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.detailed_start_day;
  opt.long_tail_apps = cfg.long_tail_apps;
  const core::AnalysisContext ctx(sim.store, opt);
  const core::MobilityResult r = core::analyze_mobility(ctx);

  std::printf("== max displacement (km) ==\n");
  std::vector<std::vector<std::string>> rows;
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    rows.push_back({"p" + util::format_num(q * 100, 0),
                    util::format_num(r.wearable_displacement_km.quantile(q), 1),
                    util::format_num(r.all_displacement_km.quantile(q), 1)});
  }
  std::fputs(util::table({"quantile", "wearable users", "all users"}, rows)
                 .c_str(),
             stdout);
  std::printf("means: %.1f km vs %.1f km (ratio %.2f; paper ~2x)\n",
              r.wearable_mean_km, r.all_mean_km, r.displacement_ratio);
  std::printf("%.0f%% of wearable users move < 30 km a day (paper: 90%%)\n",
              100.0 * r.frac_under_30km);

  std::printf("\n== location entropy, both normalizations ==\n");
  for (const auto norm : {core::EntropyNorm::kDwellWeighted,
                          core::EntropyNorm::kVisitCount}) {
    util::OnlineStats wear;
    util::OnlineStats all;
    for (const core::UserView& u : ctx.users()) {
      if (u.mme_rows.empty()) continue;
      const double h = core::user_location_entropy(ctx, u, norm);
      all.add(h);
      if (u.has_wearable) wear.add(h);
    }
    std::printf("  %-22s wearable=%.2f bits, all=%.2f bits (ratio %.2f)\n",
                norm == core::EntropyNorm::kDwellWeighted ? "dwell-weighted:"
                                                          : "visit-count:",
                wear.mean(), all.mean(),
                all.mean() > 0 ? wear.mean() / all.mean() : 0.0);
  }

  std::printf("\n== activity vs mobility (Fig. 4d) ==\n");
  for (std::size_t b = 0; b < r.displacement_vs_txns.x_centers.size(); ++b) {
    std::printf("  txns/hour %5.1f -> displacement %5.1f km (%zu users)\n",
                r.displacement_vs_txns.x_centers[b],
                r.displacement_vs_txns.y_means[b], r.displacement_vs_txns.n[b]);
  }
  std::printf("Spearman correlation: %.2f\n", r.mobility_activity_corr);
  std::printf(
      "\n%.0f%% of transacting wearable users use cellular data from a "
      "single location (paper: 60%%)\n",
      100.0 * r.single_location_fraction);
  return 0;
}
