#include "core/analysis_protocol.h"

#include <algorithm>

namespace wearscope::core {

ProtocolResult analyze_protocol(const AnalysisContext& ctx) {
  ProtocolResult res;

  struct Raw {
    double http_txns = 0.0;
    double https_txns = 0.0;
    double http_bytes = 0.0;
    double https_bytes = 0.0;
  };
  std::array<Raw, appdb::kCategoryCount> per_category{};
  Raw total;

  const auto& log = ctx.store().proxy;
  for (const UserView* u : ctx.wearable_users()) {
    for (std::size_t i = 0; i < u->wearable_rows.size(); ++i) {
      const trace::ProxyRecord& r = log[u->wearable_rows[i]];
      if (!ctx.in_detailed_window(r.timestamp)) continue;
      const bool http = r.protocol == trace::Protocol::kHttp;
      const auto bytes = static_cast<double>(r.bytes_total());
      (http ? total.http_txns : total.https_txns) += 1.0;
      (http ? total.http_bytes : total.https_bytes) += bytes;
      const auto cat =
          ctx.signatures().app_category(u->wearable_classes[i].app);
      if (!cat) continue;
      Raw& c = per_category[static_cast<std::size_t>(*cat)];
      (http ? c.http_txns : c.https_txns) += 1.0;
      (http ? c.http_bytes : c.https_bytes) += bytes;
    }
  }

  res.http_txns = total.http_txns;
  res.https_txns = total.https_txns;
  const double all_txns = total.http_txns + total.https_txns;
  const double all_bytes = total.http_bytes + total.https_bytes;
  if (all_txns > 0.0) res.https_txn_share = total.https_txns / all_txns;
  if (all_bytes > 0.0) res.https_data_share = total.https_bytes / all_bytes;

  const double overall_http =
      all_txns > 0.0 ? total.http_txns / all_txns : 0.0;
  for (const appdb::Category cat : appdb::all_categories()) {
    const Raw& c = per_category[static_cast<std::size_t>(cat)];
    const double txns = c.http_txns + c.https_txns;
    if (txns <= 0.0) continue;
    CategoryProtocolMix mix;
    mix.category = cat;
    mix.txns = txns;
    mix.http_txn_share = c.http_txns / txns;
    const double bytes = c.http_bytes + c.https_bytes;
    if (bytes > 0.0) mix.http_data_share = c.http_bytes / bytes;
    if (mix.http_txn_share > 2.0 * overall_http && txns >= 50.0) {
      res.plaintext_laggards.push_back(cat);
    }
    res.by_category.push_back(mix);
  }
  std::sort(res.by_category.begin(), res.by_category.end(),
            [](const CategoryProtocolMix& a, const CategoryProtocolMix& b) {
              return a.http_txn_share > b.http_txn_share;
            });
  return res;
}

FigureData figure_protocol(const ProtocolResult& r) {
  FigureData fig;
  fig.id = "protocol";
  fig.title = "HTTP vs HTTPS in wearable traffic (HTTPS readiness)";
  Series s;
  s.name = "http_txn_share_by_category";
  for (const CategoryProtocolMix& m : r.by_category) {
    s.labels.push_back(std::string(appdb::category_name(m.category)));
    s.y.push_back(m.http_txn_share);
  }
  fig.series.push_back(std::move(s));

  // By 2018 the wearable app ecosystem was largely TLS, with plaintext
  // remnants in weather/news-style content fetches (the authors' HTTPS
  // paper motivates exactly this measurement).
  fig.checks.push_back(make_check("HTTPS transaction share (dominant)", 0.93,
                                  r.https_txn_share, 0.85, 1.0));
  fig.checks.push_back(make_check("HTTPS data share (dominant)", 0.93,
                                  r.https_data_share, 0.80, 1.0));
  fig.checks.push_back(make_check(
      "plaintext HTTP still observable", 1.0,
      r.http_txns > 0.0 ? 1.0 : 0.0, 1.0, 1.0));
  fig.notes.push_back(
      "extension: the paper's infrastructure separates HTTP/HTTPS (§3.3) "
      "but never reports the split; the authors' prior work (\"Are "
      "Wearables Ready for HTTPS?\") motivates it");
  return fig;
}

}  // namespace wearscope::core
