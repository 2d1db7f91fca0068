#include "core/analysis_cohorts.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>

namespace wearscope::core {

namespace {

constexpr std::uint32_t kNoModel = ~std::uint32_t{0};

}  // namespace

CohortResult analyze_cohorts(const AnalysisContext& ctx) {
  CohortResult res;
  const trace::TraceStore& store = ctx.store();

  // Key by model name: several TACs may belong to one commercial model.
  // Dense model ids follow model-name order (the DeviceDB is tiny).
  std::vector<std::string> models;
  for (const trace::DeviceRecord& d : store.devices) models.push_back(d.model);
  std::sort(models.begin(), models.end());
  models.erase(std::unique(models.begin(), models.end()), models.end());

  // Each DeviceDB entry resolves to its model once (a TAC listed twice
  // keeps its first row).
  struct Entry {
    const trace::DeviceRecord* device = nullptr;
    std::uint32_t model = kNoModel;
  };
  std::unordered_map<trace::Tac, Entry> by_tac;
  for (const trace::DeviceRecord& d : store.devices) {
    const auto m = std::lower_bound(models.begin(), models.end(), d.model);
    by_tac.try_emplace(
        d.tac, Entry{&d, static_cast<std::uint32_t>(m - models.begin())});
  }
  // A user's wearable rows mostly repeat one TAC (their own watch), so
  // each log's walk looks a TAC up only when it differs from the previous
  // wearable row's.
  struct Memo {
    trace::Tac tac = 0;
    Entry entry;
    bool valid = false;
  };
  const auto entry_of = [&by_tac](Memo& memo, trace::Tac tac) -> const Entry& {
    if (!memo.valid || memo.tac != tac) {
      const auto it = by_tac.find(tac);
      memo = {tac, it != by_tac.end() ? it->second : Entry{}, true};
    }
    return memo.entry;
  };
  const DeviceClassifier& devices = ctx.devices();
  Memo mme_memo;
  Memo proxy_memo;

  // Per-model tallies.  Users are visited one at a time, so "last user
  // counted" stamps make every distinct count a comparison; a user's rows
  // are time-sorted, so their active days of one model are runs.
  constexpr std::size_t kNone = ~std::size_t{0};
  struct Tally {
    const trace::DeviceRecord* first = nullptr;  ///< First registration.
    std::size_t users = 0;
    std::size_t active_users = 0;
    std::size_t active_days = 0;
    double txns = 0.0;
    double bytes = 0.0;
    std::size_t user_stamp = kNone;
    std::size_t active_stamp = kNone;
    std::size_t day_stamp_user = kNone;
    int day_stamp = 0;
  };
  std::vector<Tally> tally(models.size());

  // Only wearable users have wearable-TAC registrations or wearable rows.
  const std::span<const UserView* const> owners = ctx.wearable_users();
  for (std::size_t i = 0; i < owners.size(); ++i) {
    const UserView& u = *owners[i];
    // Registration: any wearable-TAC MME event counts the user into the
    // model cohort (full window, like the adoption analysis).
    for_each_row(store.mme, u.mme_rows, [&](const trace::MmeRecord& r) {
      if (!devices.is_wearable(r.tac)) return;
      const Entry& e = entry_of(mme_memo, r.tac);
      if (e.model == kNoModel) return;
      Tally& t = tally[e.model];
      if (t.first == nullptr) t.first = e.device;
      if (t.user_stamp != i) {
        t.user_stamp = i;
        ++t.users;
      }
    });
    // Traffic: detailed window (the wearable rows are wearable by
    // construction).
    for_each_row(store.proxy, u.wearable_rows,
                 [&](const trace::ProxyRecord& r) {
      const std::uint32_t m = entry_of(proxy_memo, r.tac).model;
      if (m == kNoModel) return;
      Tally& t = tally[m];
      if (t.active_stamp != i) {
        t.active_stamp = i;
        ++t.active_users;
      }
      if (!ctx.in_detailed_window(r.timestamp)) return;
      t.txns += 1.0;
      t.bytes += static_cast<double>(r.bytes_total());
      const int day = util::day_of(r.timestamp);
      if (t.day_stamp_user != i || t.day_stamp != day) {
        t.day_stamp_user = i;
        t.day_stamp = day;
        ++t.active_days;
      }
    });
  }

  double total_users = 0.0;
  std::map<std::string, double> by_vendor;
  for (std::size_t m = 0; m < models.size(); ++m) {
    const Tally& t = tally[m];
    if (t.users == 0 && t.active_users == 0) continue;
    ModelCohort c;
    if (t.first != nullptr) {
      c.tac = t.first->tac;
      c.manufacturer = t.first->manufacturer;
      c.os = t.first->os;
    }
    c.model = models[m];
    c.users = t.users;
    c.active_users = t.active_users;
    c.txns = t.txns;
    c.bytes = t.bytes;
    if (t.active_users > 0) {
      c.mean_active_days = static_cast<double>(t.active_days) /
                           static_cast<double>(t.active_users);
    }
    total_users += static_cast<double>(c.users);
    by_vendor[c.manufacturer] += static_cast<double>(c.users);
    res.models.push_back(std::move(c));
  }
  std::sort(res.models.begin(), res.models.end(),
            [](const ModelCohort& a, const ModelCohort& b) {
              return a.users > b.users;
            });

  for (const auto& [vendor, users] : by_vendor) {
    res.manufacturer_share.emplace_back(
        vendor, total_users > 0.0 ? users / total_users : 0.0);
  }
  std::sort(res.manufacturer_share.begin(), res.manufacturer_share.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (const auto& [vendor, share] : res.manufacturer_share) {
    if (vendor == "Samsung" || vendor == "LG") res.samsung_lg_share += share;
  }
  return res;
}

FigureData figure_cohorts(const CohortResult& r) {
  FigureData fig;
  fig.id = "cohorts";
  fig.title = "Wearable users by device model (§4.1 vendor mix)";
  Series users;
  users.name = "users_per_model";
  Series bytes;
  bytes.name = "bytes_per_model";
  for (const ModelCohort& c : r.models) {
    users.labels.push_back(c.manufacturer + " " + c.model);
    users.y.push_back(static_cast<double>(c.users));
    bytes.labels.push_back(c.manufacturer + " " + c.model);
    bytes.y.push_back(c.bytes);
  }
  fig.series = {std::move(users), std::move(bytes)};

  fig.checks.push_back(make_check(
      "Samsung + LG user share (\"most users\", §4.1)", 0.85,
      r.samsung_lg_share, 0.70, 1.0));
  fig.checks.push_back(make_check(
      "distinct wearable models observed", 6,
      static_cast<double>(r.models.size()), 3, 12));
  fig.notes.push_back(
      "extension beyond the paper's figures: §4.1 only remarks that most "
      "users run LG/Samsung watches");
  return fig;
}

}  // namespace wearscope::core
