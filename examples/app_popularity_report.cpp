// App popularity report (paper §5.1 / Figs. 5-7): the named-app ranking,
// the category roll-up, and per-usage behaviour, rendered as log-scale
// terminal charts like the paper's figures.
#include <cstdio>

#include "core/analysis_apps.h"
#include "core/analysis_categories.h"
#include "core/analysis_usage.h"
#include "core/context.h"
#include "simnet/simulator.h"
#include "util/ascii_chart.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace wearscope;
  std::string preset = "standard";
  std::int64_t seed = 42;
  std::int64_t top = 15;
  util::FlagParser flags("application popularity and usage report");
  flags.add_string("preset", &preset, "small|standard|paper");
  flags.add_int("seed", &seed, "generator seed");
  flags.add_int("top", &top, "apps per chart");
  if (!flags.parse(argc, argv)) return 0;

  simnet::SimConfig cfg = simnet::SimConfig::preset(preset);
  cfg.seed = static_cast<std::uint64_t>(seed);
  const simnet::SimResult sim = simnet::Simulator(cfg).run();

  core::AnalysisOptions opt;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.detailed_start_day;
  opt.long_tail_apps = cfg.long_tail_apps;
  const core::AnalysisContext ctx(sim.store, opt);

  const core::AppPopularityResult apps = core::analyze_apps(ctx);
  std::printf("== daily associated users (named apps, log scale) ==\n");
  std::vector<util::Bar> bars;
  for (const core::AppStats& a : apps.apps) {
    if (a.name.starts_with("LongTail-") || a.name == "Unknown") continue;
    bars.push_back({a.name, a.user_share_pct});
    if (bars.size() >= static_cast<std::size_t>(top)) break;
  }
  std::fputs(util::bar_chart(bars, 40, /*log_scale=*/true).c_str(), stdout);
  std::printf(
      "apps per user: mean %.1f observed on cellular (paper: 8 installed); "
      "%.0f%% of days run one app (paper: 93%%)\n\n",
      apps.mean_apps_per_user, 100.0 * apps.one_app_day_fraction);

  const core::CategoryResult cats = core::analyze_categories(ctx);
  std::printf("== category share of daily users ==\n");
  bars.clear();
  for (const core::CategoryStats& s : cats.by_users) {
    bars.push_back(
        {std::string(appdb::category_name(s.category)), s.user_share_pct});
  }
  std::fputs(util::bar_chart(bars, 40, /*log_scale=*/true).c_str(), stdout);

  const core::UsageResult usage = core::analyze_usage(ctx);
  std::printf("\n== data per single usage (KB, log scale) ==\n");
  bars.clear();
  for (const core::PerUsageStats& s : usage.apps) {
    if (s.name.starts_with("LongTail-") || s.name == "Unknown") continue;
    bars.push_back({s.name, s.mean_kb_per_usage});
    if (bars.size() >= static_cast<std::size_t>(top)) break;
  }
  std::fputs(util::bar_chart(bars, 40, /*log_scale=*/true).c_str(), stdout);
  std::printf(
      "\nmedia/communication apps top the per-usage volume; payments and\n"
      "notification apps populate the tail (paper Fig. 7).\n");
  return 0;
}
