#include "core/analysis_adoption.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/streaming.h"

namespace wearscope::core {

namespace {

/// Fills `t`'s daily counts and presence cardinalities from the MME
/// columns; `index_of(row)` maps a row's user to a dense index below
/// `users`.  One int32 stamp + one membership-bit byte per user: a day's
/// distinct count increments exactly once per (user, day), and the
/// ever/first-week/last-week cardinalities are bit tallies at the end —
/// the exact cardinalities the streaming counter's hash sets hold.
template <typename IndexOf>
void count_users(const trace::MmeColumns& mc,
                 const std::vector<std::uint8_t>& wearable, std::size_t users,
                 IndexOf index_of, AdoptionTally& t) {
  const int days = t.observation_days;
  std::vector<std::int32_t> last_day(users, -1);
  std::vector<std::uint8_t> flags(users, 0);
  // The log is globally time-sorted, so each day is one contiguous run of
  // rows whose end is one binary search over the timestamp column.
  std::size_t i = 0;
  while (i < mc.size()) {
    const int d = util::day_of(mc.timestamp[i]);
    const auto end = std::lower_bound(
        mc.timestamp.begin() + static_cast<std::ptrdiff_t>(i),
        mc.timestamp.end(), util::day_start(d + 1));
    const auto j = static_cast<std::size_t>(end - mc.timestamp.begin());
    if (d >= 0 && d < days) {
      const auto day_bits = static_cast<std::uint8_t>(
          1 | (d < 7 ? 2 : 0) | (d >= days - 7 ? 4 : 0));
      std::size_t today = 0;
      for (std::size_t k = i; k < j; ++k) {
        if (wearable[mc.tac_id[k]] == 0) continue;
        const auto u = static_cast<std::size_t>(index_of(k));
        if (last_day[u] == d) continue;
        last_day[u] = d;
        flags[u] |= day_bits;
        ++today;
      }
      t.daily_counts[static_cast<std::size_t>(d)] = today;
    }
    i = j;
  }
  std::size_t ever = 0;
  std::size_t first_week = 0;
  std::size_t last_week = 0;
  std::size_t both = 0;
  for (const std::uint8_t f : flags) {
    ever += f & 1;
    first_week += (f >> 1) & 1;
    last_week += (f >> 2) & 1;
    both += static_cast<std::size_t>((f & 6) == 6);
  }
  t.ever_registered = ever;
  t.first_week = first_week;
  t.last_week = last_week;
  t.both_weeks = both;
}

}  // namespace

AdoptionResult analyze_adoption(const AnalysisContext& ctx) {
  // Batch adoption fills the same mergeable tally the live shards keep and
  // finishes through AdoptionTally::finalize(): one arithmetic for Fig. 2,
  // whichever way the counters were fed.
  AdoptionTally t;
  t.observation_days = ctx.options().observation_days;
  t.daily_counts.assign(static_cast<std::size_t>(t.observation_days), 0);

  // Wearable classification is one flag per TAC-dictionary entry.
  const trace::MmeColumns& mc = ctx.store().mme_columns();
  std::vector<std::uint8_t> wearable(mc.tacs.size());
  for (std::size_t k = 0; k < mc.tacs.size(); ++k)
    wearable[k] = ctx.devices().is_wearable(mc.tacs[k]) ? 1 : 0;

  // A user's dense index is its id offset when the id space is compact
  // (the generator hands out sequential ids), else its rank among the
  // sorted distinct ids (e.g. anonymized ids spread over 64 bits).
  trace::UserId umin = ~trace::UserId{0};
  trace::UserId umax = 0;
  for (const trace::UserId u : mc.user_id) {
    umin = std::min(umin, u);
    umax = std::max(umax, u);
  }
  if (mc.size() > 0 && umax - umin <= mc.size() + 1024) {
    count_users(mc, wearable, static_cast<std::size_t>(umax - umin) + 1,
                [&mc, umin](std::size_t k) { return mc.user_id[k] - umin; },
                t);
  } else {
    std::vector<trace::UserId> ids(mc.user_id.begin(), mc.user_id.end());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    count_users(mc, wearable, ids.size(), [&](std::size_t k) {
      return std::lower_bound(ids.begin(), ids.end(), mc.user_id[k]) -
             ids.begin();
    }, t);
  }

  // wearable_users() holds each user once, so the transacted "set" is a
  // plain count.
  for (const UserView* u : ctx.wearable_users())
    if (!u->wearable_rows.empty()) ++t.ever_transacted;
  return t.finalize();
}

FigureData figure2a(const AdoptionResult& r) {
  FigureData fig;
  fig.id = "fig2a";
  fig.title = "Daily SIM-enabled wearable users registered (normalized)";
  Series s;
  s.name = "registered_users_norm";
  for (std::size_t d = 0; d < r.daily_registered_norm.size(); ++d) {
    s.x.push_back(static_cast<double>(d));
    s.y.push_back(r.daily_registered_norm[d]);
  }
  fig.series.push_back(std::move(s));
  fig.checks.push_back(make_check("total user growth over 5 months", 0.09,
                                  r.total_growth, 0.05, 0.14));
  fig.checks.push_back(make_check("monthly growth rate", 0.015,
                                  r.monthly_growth, 0.008, 0.028));
  fig.checks.push_back(make_check(
      "fraction of users ever transmitting data", 0.34,
      r.ever_transacting_fraction, 0.28, 0.40));
  fig.notes.push_back(
      "daily counts are distinct users with wearable-TAC MME registrations");
  return fig;
}

FigureData figure2b(const AdoptionResult& r) {
  FigureData fig;
  fig.id = "fig2b";
  fig.title = "First week vs last week wearable users";
  Series s;
  s.name = "user_share_of_union";
  s.labels = {"still-active", "gone", "new"};
  s.y = {r.still_active_share, r.gone_share, r.new_share};
  fig.series.push_back(std::move(s));
  fig.checks.push_back(make_check("users active in both weeks (share)", 0.77,
                                  r.still_active_share, 0.68, 0.88));
  fig.checks.push_back(make_check("initial users gone by last week", 0.07,
                                  r.churned_of_initial, 0.03, 0.12));
  return fig;
}

}  // namespace wearscope::core
