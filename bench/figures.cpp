// Regenerates the paper's figures (Figs. 2-8 and the §6 Through-Device
// study), the extension studies and the ablations from one shared capture.
//
//   figures [--figure ID|all] [--preset small|standard|paper] [--seed N]
//           [--csv-dir DIR] [--quiet]
//
// One invocation simulates the (preset, seed) capture once.  A figure entry
// renders one figure of the shared core::Pipeline report, which runs once
// and only when a figure entry is selected; a study entry (an ablation or
// the Apple Watch launch what-if) gets the config and the simulation only.
// The exit code is 0 even when a paper-vs-measured check fails: failures are
// reported in the output, and tests/test_pipeline_integration.cpp gates them.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/device_id.h"
#include "core/pipeline.h"
#include "simnet/simulator.h"
#include "util/ascii_chart.h"
#include "util/error.h"
#include "util/flags.h"
#include "util/stats.h"

namespace {

using namespace wearscope;

/// What a figure entry sees: the shared capture and its study report.
struct Shared {
  const simnet::SimConfig& config;
  const simnet::SimResult& sim;
  const core::StudyReport& report;
};

/// One row of the driver's table.  A figure entry names a figure of the
/// study report; a study entry has a `study` body instead.
struct Entry {
  std::string_view id;      ///< --figure value.
  std::string_view figure;  ///< StudyReport figure id; empty for studies.
  /// Series rows the generic figure path renders (0 = none).
  std::size_t series_rows = 0;
  bool log_scale = true;
  /// Figure-specific lines after the series; skipped under --quiet.
  void (*extra)(const Shared&) = nullptr;
  void (*study)(const simnet::SimConfig&, const simnet::SimResult&) = nullptr;
};

std::size_t simulations = 0;

simnet::SimResult simulate(const simnet::SimConfig& cfg) {
  ++simulations;
  return simnet::Simulator(cfg).run();
}

core::AnalysisOptions analysis_options(const simnet::SimResult& sim) {
  core::AnalysisOptions opt;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.detailed_start_day;
  opt.long_tail_apps = sim.config.long_tail_apps;
  return opt;
}

double elapsed_s(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Weekly averages of a normalized daily adoption curve.
std::vector<double> weekly(const std::vector<double>& daily) {
  std::vector<double> out;
  for (std::size_t d = 0; d + 7 <= daily.size(); d += 7) {
    double sum = 0.0;
    for (std::size_t k = 0; k < 7; ++k) sum += daily[d + k];
    out.push_back(sum / 7.0);
  }
  return out;
}

/// Pretty-prints a label-indexed series as a bar chart (top `limit`
/// entries), an hour-of-day profile as a sparkline, and any other x/y
/// series as decile rows.
void print_series(const core::FigureData& fig, bool log_scale,
                  std::size_t limit) {
  for (const core::Series& s : fig.series) {
    std::printf("-- series: %s --\n", s.name.c_str());
    if (!s.labels.empty()) {
      std::vector<util::Bar> bars;
      for (std::size_t i = 0; i < s.labels.size() && i < limit; ++i) {
        bars.push_back({s.labels[i], s.y[i]});
      }
      std::fputs(util::bar_chart(bars, 44, log_scale).c_str(), stdout);
      if (s.labels.size() > limit) {
        std::printf("   ... (%zu more rows)\n", s.labels.size() - limit);
      }
    } else if (s.x.size() == 24) {
      std::printf("   hours 0-23: [%s]\n", util::sparkline(s.y).c_str());
    } else {
      std::vector<std::vector<std::string>> rows;
      for (std::size_t q = 0; q <= 10 && !s.x.empty(); ++q) {
        const std::size_t idx = std::min(s.x.size() - 1, s.x.size() * q / 10);
        rows.push_back({util::format_num(static_cast<double>(q) / 10.0),
                        util::format_num(s.x[idx]),
                        util::format_num(s.y[idx])});
      }
      std::fputs(util::table({"frac", "x", "y"}, rows).c_str(), stdout);
    }
  }
}

// ------------------------------------------------------------ figure extras

void fig2a_adoption(const Shared& s) {
  const core::AdoptionResult& r = s.report.adoption;
  // Weekly averages of the normalized daily counts: the ramp the paper
  // plots.
  std::printf("-- normalized registered users, weekly averages --\n");
  const std::vector<double> wk = weekly(r.daily_registered_norm);
  std::printf("   weeks: [%s]\n", util::sparkline(wk).c_str());
  std::printf("   first-week avg=%.4f last-week avg=%.4f (+%.1f%%)\n",
              wk.front(), wk.back(), 100.0 * (wk.back() / wk.front() - 1.0));
  std::printf("   ever registered: %zu users; ever transacted: %zu (%.1f%%)\n",
              r.ever_registered, r.ever_transacted,
              100.0 * r.ever_transacting_fraction);
}

void fig3a_diurnal(const Shared& s) {
  const core::DiurnalResult& r = s.report.diurnal;
  std::printf("   commute-morning (6-9am) weekday/weekend user ratio: %.2f\n",
              r.commute_bump_ratio);
  std::printf("   wearable share of total traffic, weekend/weekday: %.2f\n",
              r.weekend_relative_usage);
}

void fig3b_activity(const Shared& s) {
  const core::ActivityResult& r = s.report.activity;
  std::printf("   active days/week: mean=%.2f p50=%.2f p90=%.2f\n",
              r.mean_active_days, r.active_days_per_week.quantile(0.5),
              r.active_days_per_week.quantile(0.9));
  std::printf("   active hours/day: mean=%.2f p50=%.2f p90=%.2f\n",
              r.mean_active_hours, r.active_hours_per_day.quantile(0.5),
              r.active_hours_per_day.quantile(0.9));
}

void fig3c_transactions(const Shared& s) {
  const core::ActivityResult& r = s.report.activity;
  std::printf("-- transaction size quantiles (KB) --\n");
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.8, 0.9, 0.99}) {
    std::printf("   p%-4.0f %10.2f\n", q * 100,
                r.txn_size_bytes.quantile(q) / 1000.0);
  }
  std::printf("   mean %10.2f  (%zu transactions)\n", r.mean_txn_bytes / 1000.0,
              r.txn_size_bytes.size());
  std::printf("-- hourly per-user activity --\n");
  std::printf("   txns/hour:  p50=%.1f p90=%.1f\n",
              r.hourly_txns_per_user.quantile(0.5),
              r.hourly_txns_per_user.quantile(0.9));
  std::printf("   bytes/hour: p50=%.1fKB p90=%.1fKB\n",
              r.hourly_bytes_per_user.quantile(0.5) / 1000.0,
              r.hourly_bytes_per_user.quantile(0.9) / 1000.0);
}

void fig3d_correlation(const Shared& s) {
  const core::ActivityResult& r = s.report.activity;
  std::printf("-- txns/hour by active-hours decile --\n");
  std::vector<std::vector<std::string>> rows;
  for (std::size_t b = 0; b < r.txns_vs_hours.x_centers.size(); ++b) {
    rows.push_back({util::format_num(r.txns_vs_hours.x_centers[b], 2),
                    util::format_num(r.txns_vs_hours.y_means[b], 2),
                    std::to_string(r.txns_vs_hours.n[b])});
  }
  std::fputs(util::table({"active h/day", "txns/hour", "users"}, rows).c_str(),
             stdout);
  std::printf("   Pearson correlation: %.3f\n", r.correlation);
}

void fig4a_user_traffic(const Shared& s) {
  const core::ComparisonResult& r = s.report.comparison;
  std::printf("-- per-user daily bytes (normalized by max user) --\n");
  for (const double q : {0.25, 0.5, 0.75, 0.9, 0.99}) {
    std::printf("   p%-4.0f owners=%.5f others=%.5f\n", q * 100,
                r.owner_daily_bytes_norm.quantile(q),
                r.other_daily_bytes_norm.quantile(q));
  }
  std::printf("   owners sampled: %zu; others: %zu\n",
              r.owner_daily_bytes_norm.size(), r.other_daily_bytes_norm.size());
}

void fig4b_traffic_ratio(const Shared& s) {
  const core::ComparisonResult& r = s.report.comparison;
  std::printf("-- wearable/total ratio quantiles --\n");
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    std::printf("   p%-4.0f %.6f\n", q * 100, r.wearable_share.quantile(q));
  }
  std::printf("   transacting owners sampled: %zu\n", r.wearable_share.size());
}

void fig4c_displacement(const Shared& s) {
  const core::MobilityResult& r = s.report.mobility;
  std::printf("-- max displacement quantiles (km) --\n");
  for (const double q : {0.25, 0.5, 0.75, 0.9, 0.99}) {
    std::printf("   p%-4.0f wearable=%.1f all=%.1f\n", q * 100,
                r.wearable_displacement_km.quantile(q),
                r.all_displacement_km.quantile(q));
  }
  std::printf("   mean: wearable=%.1f km, all=%.1f km (ratio %.2f)\n",
              r.wearable_mean_km, r.all_mean_km, r.displacement_ratio);
  std::printf("   entropy: wearable=%.2f bits, all=%.2f bits (+%.0f%%)\n",
              r.wearable_entropy_bits, r.all_entropy_bits,
              100.0 * (r.entropy_ratio - 1.0));
  std::printf("   single-location transacting users: %.1f%%\n",
              100.0 * r.single_location_fraction);
}

void fig4d_mobility_activity(const Shared& s) {
  const core::MobilityResult& r = s.report.mobility;
  std::printf("-- mean txns/hour by displacement decile --\n");
  std::vector<std::vector<std::string>> rows;
  for (std::size_t b = 0; b < r.displacement_vs_txns.x_centers.size(); ++b) {
    rows.push_back({util::format_num(r.displacement_vs_txns.x_centers[b], 2),
                    util::format_num(r.displacement_vs_txns.y_means[b], 1),
                    std::to_string(r.displacement_vs_txns.n[b])});
  }
  std::fputs(
      util::table({"displacement km", "txns/hour", "users"}, rows).c_str(),
      stdout);
  std::printf("   Spearman correlation: %.3f\n", r.mobility_activity_corr);
}

void fig5a_app_popularity(const Shared& s) {
  const core::AppPopularityResult& r = s.report.apps;
  std::printf("   apps observed per user: mean=%.1f max=%.0f\n",
              r.mean_apps_per_user, r.max_apps_per_user);
  std::printf("   unknown (unmapped) traffic: %.1f%%\n",
              100.0 * r.unknown_traffic_fraction);
}

void fig6_categories(const Shared& s) {
  std::printf("-- category shares (%% of daily total) --\n");
  std::vector<std::vector<std::string>> rows;
  for (const core::CategoryStats& c : s.report.categories.by_users) {
    rows.push_back({std::string(appdb::category_name(c.category)),
                    util::format_num(c.user_share_pct, 2),
                    util::format_num(c.usage_share_pct, 2),
                    util::format_num(c.txn_share_pct, 2),
                    util::format_num(c.data_share_pct, 2)});
  }
  std::fputs(
      util::table({"category", "users%", "usage%", "txns%", "data%"}, rows)
          .c_str(),
      stdout);
}

void fig7_per_usage(const Shared& s) {
  std::printf("-- per-usage stats (named apps, by data/usage) --\n");
  std::vector<std::vector<std::string>> rows;
  for (const core::PerUsageStats& u : s.report.usage.apps) {
    if (u.name.starts_with("LongTail-")) continue;
    rows.push_back({u.name, util::format_num(u.mean_txns_per_usage, 1),
                    util::format_num(u.mean_kb_per_usage, 1),
                    std::to_string(u.usages)});
    if (rows.size() >= 20) break;
  }
  std::fputs(
      util::table({"app", "txns/usage", "KB/usage", "usages"}, rows).c_str(),
      stdout);
}

void fig8_thirdparty(const Shared& s) {
  const core::ThirdPartyResult& r = s.report.thirdparty;
  std::vector<std::vector<std::string>> rows;
  for (const core::ClassStats& c : r.classes) {
    rows.push_back({std::string(appdb::transaction_class_name(c.cls)),
                    util::format_num(c.user_share_pct, 2),
                    util::format_num(c.txn_share_pct, 2),
                    util::format_num(c.data_share_pct, 2)});
  }
  std::fputs(
      util::table({"class", "users%", "frequency%", "data%"}, rows).c_str(),
      stdout);
  std::printf("   first-party vs third-party data volume ratio: %.2f\n",
              r.app_over_thirdparty_data);
}

void sec6_throughdevice(const Shared& s) {
  const core::ThroughDeviceResult& r = s.report.throughdevice;
  std::printf("   detected TD users: %zu\n", r.detected_users);
  std::printf(
      "   TD vs SIM (medians): txns/day %.2fx, bytes/day %.2fx, "
      "entropy %.2fx\n",
      r.daily_txn_ratio, r.daily_bytes_ratio, r.entropy_ratio);
}

void ext_device_cohorts(const Shared& s) {
  const core::CohortResult& r = s.report.cohorts;
  std::printf("-- per-model cohort table --\n");
  std::vector<std::vector<std::string>> rows;
  for (const core::ModelCohort& c : r.models) {
    rows.push_back({c.manufacturer + " " + c.model, c.os,
                    std::to_string(c.users), std::to_string(c.active_users),
                    util::format_num(c.bytes / 1e6, 1),
                    util::format_num(c.mean_active_days, 1)});
  }
  std::fputs(util::table({"model", "OS", "users", "active", "MB", "days/user"},
                         rows)
                 .c_str(),
             stdout);
  std::printf("-- manufacturer shares --\n");
  std::vector<util::Bar> bars;
  for (const auto& [vendor, share] : r.manufacturer_share) {
    bars.push_back({vendor, 100.0 * share});
  }
  std::fputs(util::bar_chart(bars, 40).c_str(), stdout);
}

void ext_geography(const Shared& s) {
  const core::GeographyResult& r = s.report.geography;
  std::printf("-- coverage areas (by resident users) --\n");
  std::vector<std::vector<std::string>> rows;
  for (const core::AreaStats& a : r.areas) {
    rows.push_back({std::to_string(a.area_id), std::to_string(a.sectors),
                    std::to_string(a.users), std::to_string(a.wearable_users),
                    util::format_num(100.0 * a.adoption_rate(), 1) + "%"});
  }
  std::fputs(
      util::table({"area", "sectors", "users", "wearables", "adoption"}, rows)
          .c_str(),
      stdout);
  std::printf("urban adoption %.1f%% vs rural %.1f%%\n",
              100.0 * r.urban_adoption, 100.0 * r.rural_adoption);
}

void ext_protocol_mix(const Shared& s) {
  const core::ProtocolResult& r = s.report.protocol;
  std::printf("overall: %.1f%% of transactions / %.1f%% of bytes "
              "over HTTPS (%g plaintext transactions)\n",
              100.0 * r.https_txn_share, 100.0 * r.https_data_share,
              r.http_txns);
  std::printf("-- plaintext share by category --\n");
  std::vector<std::vector<std::string>> rows;
  for (const core::CategoryProtocolMix& m : r.by_category) {
    rows.push_back({std::string(appdb::category_name(m.category)),
                    util::format_num(100.0 * m.http_txn_share, 1) + "%",
                    util::format_num(100.0 * m.http_data_share, 1) + "%",
                    util::format_num(m.txns, 0)});
  }
  std::fputs(
      util::table({"category", "http txns", "http bytes", "txns"}, rows)
          .c_str(),
      stdout);
}

void ext_retention(const Shared& s) {
  const core::RetentionResult& r = s.report.retention;
  std::printf("-- cohort survival (weeks since adoption) --\n");
  for (const core::Cohort& c : r.cohorts) {
    if (c.size < 5) continue;  // tiny cohorts are noise
    std::printf("  wk%-3d (n=%4zu): [%s]\n", c.adoption_week, c.size,
                util::sparkline(c.survival).c_str());
  }
  std::printf("  mean survival: 4w=%.3f 8w=%.3f 12w=%.3f\n", r.survival_4w,
              r.survival_8w, r.survival_12w);
}

// ------------------------------------------------------------ study entries

/// Mean week-over-week growth rate of a weekly series segment.
double growth_rate(const std::vector<double>& w, std::size_t lo,
                   std::size_t hi) {
  double acc = 0.0;
  std::size_t n = 0;
  for (std::size_t i = lo + 1; i < hi && i < w.size(); ++i) {
    if (w[i - 1] > 0.0) {
      acc += w[i] / w[i - 1] - 1.0;
      ++n;
    }
  }
  return n > 0 ? acc / static_cast<double>(n) : 0.0;
}

// Extension (paper §6): "we expect that this rise will be sharper once the
// Apple watch is supported by this ISP."  The what-if launches Apple Watch
// support mid-window with accelerated post-launch adoption; the curated
// model list already names the Watch (§3.2), so the unchanged analysis
// picks the new devices up.  The shared capture is the status-quo baseline.
void ext_applewatch_launch(const simnet::SimConfig& base,
                           const simnet::SimResult& sim) {
  simnet::SimConfig launch = base;
  launch.apple_watch_launch_day = base.observation_days / 2;
  launch.launch_adoption_boost = 3.0;
  launch.apple_watch_share = 0.55;

  std::printf("== baseline (status quo: no Apple Watch support) ==\n");
  const core::AdoptionResult before =
      core::analyze_adoption(core::AnalysisContext(sim.store,
                                                   analysis_options(sim)));
  std::printf("== what-if (launch on day %d, 3x adoption boost) ==\n",
              launch.apple_watch_launch_day);
  const core::AdoptionResult after = [&launch] {
    const simnet::SimResult what_if = simulate(launch);
    return core::analyze_adoption(
        core::AnalysisContext(what_if.store, analysis_options(what_if)));
  }();

  const std::vector<double> wk_before = weekly(before.daily_registered_norm);
  const std::vector<double> wk_after = weekly(after.daily_registered_norm);
  std::printf("baseline weekly curve: [%s]\n",
              util::sparkline(wk_before).c_str());
  std::printf("what-if  weekly curve: [%s]\n",
              util::sparkline(wk_after).c_str());

  const std::size_t launch_week =
      static_cast<std::size_t>(launch.apple_watch_launch_day / 7);
  const double pre = growth_rate(wk_after, 1, launch_week);
  const double post = growth_rate(wk_after, launch_week, wk_after.size());
  std::printf("what-if weekly growth: %.2f%%/wk before launch, "
              "%.2f%%/wk after\n",
              100.0 * pre, 100.0 * post);
  std::printf("total 5-month growth: baseline %.1f%%, what-if %.1f%%\n",
              100.0 * before.total_growth, 100.0 * after.total_growth);

  const bool sharper =
      post > pre * 1.5 && after.total_growth > before.total_growth * 1.2;
  std::printf("[result] ext_applewatch_launch: %s\n",
              sharper ? "SHARPER INCREASE CONFIRMED"
                      : "NO CLEAR ACCELERATION (unexpected)");
}

// Ablation: sensitivity of the per-usage statistics (Fig. 7) to the
// sessionization gap.  The paper fixes the gap at 60 s ("two consecutive
// transactions at least one minute apart"); the sweep shows how usage
// counts and per-usage volumes respond.
void ablation_session_gap(const simnet::SimConfig&,
                          const simnet::SimResult& sim) {
  std::printf("== ablation: usage gap sweep ==\n");
  std::vector<std::vector<std::string>> rows;
  for (const util::SimTime gap : {15, 30, 60, 120, 300}) {
    core::AnalysisOptions aopt = analysis_options(sim);
    aopt.usage_gap_s = gap;
    const core::AnalysisContext ctx(sim.store, aopt);
    const core::UsageResult usage = core::analyze_usage(ctx);

    std::size_t total_usages = 0;
    double txn_sum = 0.0;
    double kb_sum = 0.0;
    for (const core::PerUsageStats& s : usage.apps) {
      total_usages += s.usages;
      txn_sum += s.mean_txns_per_usage * static_cast<double>(s.usages);
      kb_sum += s.mean_kb_per_usage * static_cast<double>(s.usages);
    }
    const double n = std::max<double>(1.0, static_cast<double>(total_usages));
    rows.push_back({std::to_string(gap) + "s", std::to_string(total_usages),
                    util::format_num(txn_sum / n, 2),
                    util::format_num(kb_sum / n, 1),
                    usage.apps.empty() ? "-" : usage.apps.front().name});
  }
  std::fputs(util::table({"gap", "usages", "txns/usage", "KB/usage",
                          "top app by data"},
                         rows)
                 .c_str(),
             stdout);
  std::printf(
      "note: shorter gaps split usages (more, smaller); the paper's\n"
      "60 s sits on the plateau because generated intra-usage gaps\n"
      "stay below ~55 s by construction of the traffic profiles.\n");
}

// Ablation: robustness of the app/category figures to signature-table
// coverage.  The authors' SNI->app mapping was necessarily incomplete; the
// sweep degrades the rule table and tracks the unknown-traffic share and
// the stability of the headline rankings.
void ablation_signature_coverage(const simnet::SimConfig&,
                                 const simnet::SimResult& sim) {
  std::printf("== ablation: signature coverage sweep ==\n");
  std::set<std::string> full_top5;
  std::vector<std::vector<std::string>> rows;
  for (const double coverage : {1.0, 0.75, 0.5, 0.25, 0.1}) {
    core::AnalysisOptions aopt = analysis_options(sim);
    aopt.signature_coverage = coverage;
    const core::AnalysisContext ctx(sim.store, aopt);
    const core::AppPopularityResult apps = core::analyze_apps(ctx);
    const core::CategoryResult cats = core::analyze_categories(ctx);

    std::set<std::string> top5;
    for (const core::AppStats& a : apps.apps) {
      if (top5.size() >= 5) break;
      top5.insert(a.name);
    }
    if (coverage == 1.0) full_top5 = top5;
    std::size_t kept = 0;
    for (const std::string& name : top5) {
      if (full_top5.contains(name)) ++kept;
    }
    const std::string top_cat =
        cats.by_users.empty()
            ? "-"
            : std::string(appdb::category_name(cats.by_users[0].category));
    rows.push_back(
        {util::format_num(coverage, 2),
         std::to_string(ctx.signatures().rule_count()),
         util::format_num(100.0 * apps.unknown_traffic_fraction, 1) + "%",
         std::to_string(kept) + "/5", top_cat});
  }
  std::fputs(util::table({"coverage", "rules", "unknown traffic",
                          "top-5 apps kept", "top category"},
                         rows)
                 .c_str(),
             stdout);
  std::printf(
      "note: rules are dropped catalog-order (popular apps first in\n"
      "the table), so low coverage rapidly blinds the analysis — the\n"
      "paper's conclusions need the popular-app signatures most.\n");
}

// Ablation: dwell-weighted vs visit-count location entropy (paper §4.4
// normalizes entropy "by the time a user stays in a single location"; this
// shows what the naive visit-count variant would have reported).
void ablation_entropy_norm(const simnet::SimConfig&,
                           const simnet::SimResult& sim) {
  const core::AnalysisContext ctx(sim.store, analysis_options(sim));
  std::printf("== ablation: entropy normalization ==\n");
  std::vector<std::vector<std::string>> rows;
  for (const core::EntropyNorm norm :
       {core::EntropyNorm::kDwellWeighted, core::EntropyNorm::kVisitCount}) {
    util::OnlineStats wearable;
    util::OnlineStats all;
    for (const core::UserView& u : ctx.users()) {
      if (u.mme_rows.empty()) continue;
      const double h = core::user_location_entropy(ctx, u, norm);
      all.add(h);
      if (u.has_wearable) wearable.add(h);
    }
    const double ratio = all.mean() > 0 ? wearable.mean() / all.mean() : 0;
    rows.push_back({norm == core::EntropyNorm::kDwellWeighted
                        ? "dwell-weighted (paper)"
                        : "visit-count (naive)",
                    util::format_num(wearable.mean(), 3),
                    util::format_num(all.mean(), 3),
                    util::format_num(ratio, 3)});
  }
  std::fputs(
      util::table({"normalization", "wearable bits", "all bits", "ratio"},
                  rows)
          .c_str(),
      stdout);
  std::printf(
      "note: visit counts over-weight brief handovers; dwell\n"
      "weighting is what makes the +70%% gap attributable to where\n"
      "users actually spend time.\n");
}

// Ablation: curated model-list identification (paper §3.2) vs a naive
// manufacturer-prefix classifier.  Samsung/LG/Huawei also sell most of the
// country's phones, so prefix matching floods the "wearable" population.
void ablation_device_id(const simnet::SimConfig&,
                        const simnet::SimResult& sim) {
  const core::DeviceClassifier curated(sim.store.devices);
  const std::vector<std::string_view> vendors = {"Samsung", "LG", "Huawei"};
  const core::DeviceClassifier naive =
      core::DeviceClassifier::from_manufacturers(sim.store.devices, vendors);

  const auto count_users = [&](const core::DeviceClassifier& c) {
    std::set<trace::UserId> users;
    for (const trace::MmeRecord& r : sim.store.mme) {
      if (c.is_wearable(r.tac)) users.insert(r.user_id);
    }
    return users.size();
  };

  // Ground truth from the generator (available because we built the ISP):
  // the real wearable-owner count.
  std::size_t truth = 0;
  for (const simnet::Subscriber& s : sim.subscribers) {
    if (s.segment == simnet::Segment::kWearableOwner) ++truth;
  }
  const auto vs_truth = [truth](std::size_t users) {
    return util::format_num(100.0 * static_cast<double>(users) /
                                static_cast<double>(truth),
                            1) +
           "%";
  };

  const std::size_t curated_users = count_users(curated);
  const std::size_t naive_users = count_users(naive);
  std::printf("== ablation: device identification ==\n");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"ground truth (generator)", std::to_string(truth), "-", "-"});
  rows.push_back({"curated model list (paper)", std::to_string(curated_users),
                  std::to_string(curated.wearable_tacs().size()),
                  vs_truth(curated_users)});
  rows.push_back({"manufacturer prefixes (naive)", std::to_string(naive_users),
                  std::to_string(naive.wearable_tacs().size()),
                  vs_truth(naive_users)});
  std::fputs(
      util::table({"strategy", "users flagged", "TACs", "vs truth"}, rows)
          .c_str(),
      stdout);
  std::printf(
      "note: the naive strategy sweeps in every Samsung/LG/Huawei\n"
      "smartphone owner — hence the paper's careful model-list step.\n");
}

// ------------------------------------------------------------------- table

constexpr std::size_t kRows = 20;

const Entry kEntries[] = {
    {.id = "fig2a_adoption", .figure = "fig2a", .extra = fig2a_adoption},
    {.id = "fig2b_retention", .figure = "fig2b", .series_rows = kRows},
    {.id = "fig3a_diurnal",
     .figure = "fig3a",
     .series_rows = kRows,
     .extra = fig3a_diurnal},
    {.id = "fig3b_activity",
     .figure = "fig3b",
     .series_rows = kRows,
     .extra = fig3b_activity},
    {.id = "fig3c_transactions",
     .figure = "fig3c",
     .extra = fig3c_transactions},
    {.id = "fig3d_correlation", .figure = "fig3d", .extra = fig3d_correlation},
    {.id = "fig4a_user_traffic",
     .figure = "fig4a",
     .extra = fig4a_user_traffic},
    {.id = "fig4b_traffic_ratio",
     .figure = "fig4b",
     .extra = fig4b_traffic_ratio},
    {.id = "fig4c_displacement",
     .figure = "fig4c",
     .extra = fig4c_displacement},
    {.id = "fig4d_mobility_activity",
     .figure = "fig4d",
     .extra = fig4d_mobility_activity},
    {.id = "fig5a_app_popularity",
     .figure = "fig5a",
     .series_rows = 25,
     .extra = fig5a_app_popularity},
    {.id = "fig5b_app_usage", .figure = "fig5b", .series_rows = kRows},
    {.id = "fig6_categories", .figure = "fig6", .extra = fig6_categories},
    {.id = "fig7_per_usage", .figure = "fig7", .extra = fig7_per_usage},
    {.id = "fig8_thirdparty", .figure = "fig8", .extra = fig8_thirdparty},
    {.id = "sec6_throughdevice",
     .figure = "sec6",
     .series_rows = kRows,
     .log_scale = false,
     .extra = sec6_throughdevice},
    {.id = "ext_device_cohorts",
     .figure = "cohorts",
     .extra = ext_device_cohorts},
    {.id = "ext_retention", .figure = "retention", .extra = ext_retention},
    {.id = "ext_protocol_mix", .figure = "protocol", .extra = ext_protocol_mix},
    {.id = "ext_geography", .figure = "geography", .extra = ext_geography},
    {.id = "ext_applewatch_launch", .study = ext_applewatch_launch},
    {.id = "ablation_session_gap", .study = ablation_session_gap},
    {.id = "ablation_signature_coverage", .study = ablation_signature_coverage},
    {.id = "ablation_entropy_norm", .study = ablation_entropy_norm},
    {.id = "ablation_device_id", .study = ablation_device_id},
};

/// The generic figure path: checks, series, extra lines, CSV, verdict.
void render_figure(const Entry& e, const Shared& shared,
                   const std::string& csv_dir, bool quiet) {
  const core::FigureData& fig = shared.report.figure(e.figure);
  std::fputs(fig.to_text().c_str(), stdout);
  if (!quiet) {
    if (e.series_rows > 0) print_series(fig, e.log_scale, e.series_rows);
    if (e.extra != nullptr) e.extra(shared);
  }
  if (!csv_dir.empty()) {
    fig.write_csv(csv_dir);
    std::printf("[csv] series written to %s\n", csv_dir.c_str());
  }
  std::printf("[result] %.*s: %s\n", static_cast<int>(e.id.size()),
              e.id.data(),
              fig.all_pass() ? "ALL CHECKS PASS" : "CHECK FAILURES (see above)");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string figure = "all";
    std::string preset = "standard";
    std::int64_t seed = 42;
    std::string csv_dir;
    bool quiet = false;
    std::string ids;
    for (const Entry& e : kEntries) {
      ids += (ids.empty() ? "" : "|") + std::string(e.id);
    }
    util::FlagParser flags(
        "figures: regenerate the paper's figures, extension studies and "
        "ablations from one shared capture");
    flags.add_string("figure", &figure, "entry to run: all|" + ids);
    flags.add_string("preset", &preset,
                     "population preset: small|standard|paper");
    flags.add_int("seed", &seed, "generator seed");
    flags.add_string("csv-dir", &csv_dir,
                     "export each figure's series as CSV into this directory");
    flags.add_bool("quiet", &quiet, "suppress series rendering");
    if (!flags.parse(argc, argv)) return 0;

    std::vector<const Entry*> selected;
    for (const Entry& e : kEntries) {
      if (figure == "all" || figure == e.id) selected.push_back(&e);
    }
    if (selected.empty()) {
      throw util::ConfigError("unknown figure '" + figure +
                              "' (expected all|" + ids + ")");
    }
    simnet::SimConfig cfg = simnet::SimConfig::preset(preset);
    cfg.seed = static_cast<std::uint64_t>(seed);

    const auto t0 = std::chrono::steady_clock::now();
    const simnet::SimResult sim = simulate(cfg);
    const double gen_s = elapsed_s(t0);
    core::StudyReport report;
    std::size_t pipelines = 0;
    double analyze_s = 0.0;
    if (std::any_of(selected.begin(), selected.end(),
                    [](const Entry* e) { return e->study == nullptr; })) {
      const auto t1 = std::chrono::steady_clock::now();
      report = core::Pipeline(sim.store, analysis_options(sim)).run();
      ++pipelines;
      analyze_s = elapsed_s(t1);
    }

    const Shared shared{cfg, sim, report};
    for (const Entry* e : selected) {
      if (selected.size() > 1) {
        std::printf("=== %.*s ===\n", static_cast<int>(e->id.size()),
                    e->id.data());
      }
      if (e->study != nullptr) {
        e->study(cfg, sim);
      } else {
        render_figure(*e, shared, csv_dir, quiet);
      }
    }

    const trace::TraceSummary sum = sim.store.summarize();
    std::printf(
        "[trace] preset=%s seed=%llu proxy=%zu mme=%zu users=%zu "
        "simulations=%zu pipelines=%zu (gen %.2fs, analyze %.2fs, total "
        "%.2fs)\n",
        preset.c_str(), static_cast<unsigned long long>(seed),
        sum.proxy_records, sum.mme_records, sum.distinct_mme_users,
        simulations, pipelines, gen_s, analyze_s, elapsed_s(t0));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
