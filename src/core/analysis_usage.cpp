#include "core/analysis_usage.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace wearscope::core {

UsageResult analyze_usage(const AnalysisContext& ctx) {
  // App ids are small catalog indexes (kUnknownApp aside), so a dense
  // grow-on-demand vector accumulates them: one indexed add per usage, no
  // hashing, and the finish pass walks apps in id order.
  struct RawUsage {
    double txns = 0.0;
    double bytes = 0.0;
    double duration_s = 0.0;
    std::size_t usages = 0;
  };
  std::vector<RawUsage> raw;
  for (const UserView* u : ctx.wearable_users()) {
    for (const Usage& usage : u->usages) {
      if (!ctx.in_detailed_window(usage.start)) continue;
      if (usage.app == kUnknownApp) continue;
      if (usage.app >= raw.size()) raw.resize(usage.app + 1);
      RawUsage& a = raw[usage.app];
      a.txns += usage.transactions;
      a.bytes += static_cast<double>(usage.bytes);
      a.duration_s += static_cast<double>(usage.duration_s());
      a.usages += 1;
    }
  }

  UsageResult res;
  for (std::size_t app = 0; app < raw.size(); ++app) {
    const RawUsage& a = raw[app];
    if (a.usages == 0) continue;
    PerUsageStats s;
    s.app = static_cast<appdb::AppId>(app);
    s.name = std::string(ctx.signatures().app_name(s.app));
    s.usages = a.usages;
    s.mean_txns_per_usage = a.txns / static_cast<double>(a.usages);
    s.mean_kb_per_usage = a.bytes / static_cast<double>(a.usages) / 1000.0;
    s.mean_duration_s = a.duration_s / static_cast<double>(a.usages);
    res.apps.push_back(std::move(s));
  }
  std::sort(res.apps.begin(), res.apps.end(),
            [](const PerUsageStats& a, const PerUsageStats& b) {
              return a.mean_kb_per_usage > b.mean_kb_per_usage;
            });
  return res;
}

FigureData figure7(const UsageResult& r) {
  FigureData fig;
  fig.id = "fig7";
  fig.title = "Transactions and data during a single usage";
  // Fig. 7 plots the 50 named apps; the generated long tail stays out.
  std::vector<const PerUsageStats*> named;
  for (const PerUsageStats& s : r.apps) {
    if (!s.name.starts_with("LongTail-") && s.name != "Unknown")
      named.push_back(&s);
  }
  Series txns;
  Series data;
  Series durations;
  txns.name = "transactions_per_usage";
  data.name = "data_kb_per_usage";
  durations.name = "usage_duration_s";
  for (const PerUsageStats* s : named) {
    txns.labels.push_back(s->name);
    txns.y.push_back(s->mean_txns_per_usage);
    data.labels.push_back(s->name);
    data.y.push_back(s->mean_kb_per_usage);
    durations.labels.push_back(s->name);
    durations.y.push_back(s->mean_duration_s);
  }
  fig.series = {std::move(txns), std::move(data), std::move(durations)};

  const auto rank = [&](std::string_view name) -> double {
    for (std::size_t i = 0; i < named.size(); ++i)
      if (named[i]->name == name) return static_cast<double>(i);
    return 1e6;
  };
  // Communication/streaming apps dominate per-usage data (paper: WhatsApp,
  // Deezer, Snapchat lead Fig. 7).
  const double best_media = std::min(
      {rank("WhatsApp"), rank("Deezer"), rank("Snapchat"), rank("Netflix"),
       rank("Spotify")});
  fig.checks.push_back(make_check(
      "best media app rank by data/usage (top 5)", 0, best_media, 0, 5));
  // Payment/notification micro-interactions sit in the long tail.
  const double pay =
      std::min(rank("Samsung-Pay"), rank("Android-Pay"));
  fig.checks.push_back(make_check(
      "payment apps in the bottom half", static_cast<double>(named.size()),
      pay, static_cast<double>(named.size()) / 2.0, 1e6));
  // §5.2 attributes the media apps' volume to "the longer duration of
  // usage": the top-data app must also run meaningfully longer sessions
  // than a notification-style app.
  const auto duration_of = [&](std::string_view name) -> double {
    for (const PerUsageStats* s : named)
      if (s->name == name) return s->mean_duration_s;
    return 0.0;
  };
  if (!named.empty() && duration_of("Weather") > 0.0) {
    fig.checks.push_back(make_check(
        "top media app usage duration vs Weather (longer)", 3.0,
        named.front()->mean_duration_s / duration_of("Weather"), 1.3, 50.0));
  }
  if (!named.empty()) {
    double min_kb = named.back()->mean_kb_per_usage;
    min_kb = std::max(min_kb, 0.1);
    fig.checks.push_back(make_check(
        "per-usage data spread max/min (orders of magnitude)", 1000.0,
        named.front()->mean_kb_per_usage / min_kb, 30.0, 1e6));
  }
  return fig;
}

}  // namespace wearscope::core
