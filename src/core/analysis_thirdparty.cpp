#include "core/analysis_thirdparty.h"

#include <cstdint>
#include <span>
#include <vector>

namespace wearscope::core {

ThirdPartyResult analyze_thirdparty(const AnalysisContext& ctx) {
  // Each user appears once in wearable_users(), so per-class distinct-user
  // sets collapse into a per-user seen flag per class.  The detailed
  // window is a suffix of each user's time-sorted rows, and the
  // attribution array is index-aligned with the whole row span.
  const auto& log = ctx.store().proxy;
  struct RawClass {
    std::size_t users = 0;
    double txns = 0.0;
    double bytes = 0.0;
  };
  std::array<RawClass, appdb::kTransactionClassCount> raw{};

  for (const UserView* u : ctx.wearable_users()) {
    std::array<bool, appdb::kTransactionClassCount> seen{};
    const std::span<const std::uint32_t> rows =
        ctx.detailed_suffix(log, u->wearable_rows);
    std::size_t i = u->wearable_rows.size() - rows.size();
    for_each_row(log, rows, [&](const trace::ProxyRecord& r) {
      const auto c = static_cast<std::size_t>(u->wearable_classes[i++].cls);
      RawClass& a = raw[c];
      if (!seen[c]) {
        seen[c] = true;
        ++a.users;
      }
      a.txns += 1.0;
      a.bytes += static_cast<double>(r.bytes_total());
    });
  }

  ThirdPartyResult res;
  double total_users = 0.0;
  double total_txns = 0.0;
  double total_bytes = 0.0;
  for (const RawClass& a : raw) {
    total_users += static_cast<double>(a.users);
    total_txns += a.txns;
    total_bytes += a.bytes;
  }
  for (std::size_t c = 0; c < appdb::kTransactionClassCount; ++c) {
    ClassStats& s = res.classes[c];
    s.cls = static_cast<appdb::TransactionClass>(c);
    if (total_users > 0.0)
      s.user_share_pct =
          100.0 * static_cast<double>(raw[c].users) / total_users;
    if (total_txns > 0.0) s.txn_share_pct = 100.0 * raw[c].txns / total_txns;
    if (total_bytes > 0.0)
      s.data_share_pct = 100.0 * raw[c].bytes / total_bytes;
  }

  const double app_bytes =
      raw[static_cast<std::size_t>(appdb::TransactionClass::kApplication)]
          .bytes;
  const double third_bytes =
      raw[static_cast<std::size_t>(appdb::TransactionClass::kUtilities)].bytes +
      raw[static_cast<std::size_t>(appdb::TransactionClass::kAdvertising)]
          .bytes +
      raw[static_cast<std::size_t>(appdb::TransactionClass::kAnalytics)].bytes;
  if (third_bytes > 0.0) res.app_over_thirdparty_data = app_bytes / third_bytes;
  return res;
}

FigureData figure8(const ThirdPartyResult& r) {
  FigureData fig;
  fig.id = "fig8";
  fig.title = "Applications and the services (transaction classes)";
  Series users;
  Series freq;
  Series data;
  users.name = "users_pct";
  freq.name = "frequency_pct";
  data.name = "data_pct";
  for (const ClassStats& s : r.classes) {
    const std::string label{appdb::transaction_class_name(s.cls)};
    users.labels.push_back(label);
    users.y.push_back(s.user_share_pct);
    freq.labels.push_back(label);
    freq.y.push_back(s.txn_share_pct);
    data.labels.push_back(label);
    data.y.push_back(s.data_share_pct);
  }
  fig.series = {std::move(users), std::move(freq), std::move(data)};

  fig.checks.push_back(make_check(
      "first-party/third-party data ratio (same order of magnitude)", 3.0,
      r.app_over_thirdparty_data, 0.5, 10.0));
  const double ads =
      r.classes[static_cast<std::size_t>(appdb::TransactionClass::kAdvertising)]
          .data_share_pct;
  const double analytics =
      r.classes[static_cast<std::size_t>(appdb::TransactionClass::kAnalytics)]
          .data_share_pct;
  fig.checks.push_back(make_check("advertising data share > 0.5%", 3.0, ads,
                                  0.5, 30.0));
  fig.checks.push_back(make_check("analytics data share > 0.5%", 3.0,
                                  analytics, 0.5, 30.0));
  return fig;
}

}  // namespace wearscope::core
