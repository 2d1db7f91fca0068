// Third-party audit (paper §5.2 / Fig. 8): classifies every wearable
// transaction into Application / Utilities / Advertising / Analytics and
// then goes beyond the paper with a per-app privacy scorecard — which apps
// leak the largest share of their traffic to ad/analytics networks.
// Demonstrates composing the public attribution primitives into a custom
// analysis.
#include <algorithm>
#include <cstdio>
#include <map>

#include "core/analysis_thirdparty.h"
#include "core/context.h"
#include "simnet/simulator.h"
#include "util/ascii_chart.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace wearscope;
  std::string preset = "standard";
  std::int64_t seed = 42;
  std::int64_t top = 12;
  util::FlagParser flags("third-party traffic audit of wearable apps");
  flags.add_string("preset", &preset, "small|standard|paper");
  flags.add_int("seed", &seed, "generator seed");
  flags.add_int("top", &top, "rows in the per-app scorecard");
  if (!flags.parse(argc, argv)) return 0;

  simnet::SimConfig cfg = simnet::SimConfig::preset(preset);
  cfg.seed = static_cast<std::uint64_t>(seed);
  const simnet::SimResult sim = simnet::Simulator(cfg).run();

  core::AnalysisOptions opt;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.detailed_start_day;
  opt.long_tail_apps = cfg.long_tail_apps;
  const core::AnalysisContext ctx(sim.store, opt);

  // The packaged Fig. 8 view.
  const core::ThirdPartyResult fig8 = core::analyze_thirdparty(ctx);
  std::printf("== transaction classes (share of wearable daily total) ==\n");
  for (const core::ClassStats& s : fig8.classes) {
    std::printf("  %-12s users=%6.2f%%  freq=%6.2f%%  data=%6.2f%%\n",
                std::string(appdb::transaction_class_name(s.cls)).c_str(),
                s.user_share_pct, s.txn_share_pct, s.data_share_pct);
  }
  std::printf("first-party/third-party data ratio: %.2f "
              "(paper: same order of magnitude)\n\n",
              fig8.app_over_thirdparty_data);

  // Custom analysis: per-app third-party byte share via the attribution
  // primitives (third-party hosts inherit the nearby app by the paper's
  // temporal-proximity rule, so they CAN be charged to an app).
  struct AppAudit {
    double first_party = 0.0;
    double ads = 0.0;
    double analytics = 0.0;
    double cdn = 0.0;
  };
  std::map<std::string, AppAudit> audit;
  for (const core::UserView* u : ctx.wearable_users()) {
    for (std::size_t i = 0; i < u->wearable_rows.size(); ++i) {
      const core::EndpointClass& e = u->wearable_classes[i];
      if (e.app == core::kUnknownApp) continue;
      const double bytes = static_cast<double>(
          ctx.store().proxy[u->wearable_rows[i]].bytes_total());
      AppAudit& a = audit[std::string(ctx.signatures().app_name(e.app))];
      switch (e.cls) {
        case appdb::TransactionClass::kApplication:
          a.first_party += bytes;
          break;
        case appdb::TransactionClass::kUtilities:
          a.cdn += bytes;
          break;
        case appdb::TransactionClass::kAdvertising:
          a.ads += bytes;
          break;
        case appdb::TransactionClass::kAnalytics:
          a.analytics += bytes;
          break;
      }
    }
  }
  std::vector<std::pair<std::string, AppAudit>> ranked(audit.begin(),
                                                       audit.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
    const auto total = [](const AppAudit& a) {
      return a.first_party + a.ads + a.analytics + a.cdn;
    };
    return total(x.second) > total(y.second);
  });

  std::printf("== per-app privacy scorecard (top %lld apps by volume) ==\n",
              static_cast<long long>(top));
  std::vector<std::vector<std::string>> rows;
  std::int64_t shown = 0;
  for (const auto& [name, a] : ranked) {
    if (name.starts_with("LongTail-")) continue;
    const double total = a.first_party + a.ads + a.analytics + a.cdn;
    if (total <= 0.0) continue;
    rows.push_back({name, util::format_num(total / 1e6, 1),
                    util::format_num(100.0 * a.ads / total, 1) + "%",
                    util::format_num(100.0 * a.analytics / total, 1) + "%",
                    util::format_num(100.0 * a.cdn / total, 1) + "%"});
    if (++shown >= top) break;
  }
  std::fputs(
      util::table({"app", "MB", "ads", "analytics", "cdn"}, rows).c_str(),
      stdout);
  std::printf(
      "\nnote: with wearables' small data plans and batteries, the paper\n"
      "warns this third-party share is costlier than on smartphones.\n");
  return 0;
}
