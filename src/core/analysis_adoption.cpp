#include "core/analysis_adoption.h"

#include <cstddef>
#include <vector>

#include "core/streaming.h"

namespace wearscope::core {

AdoptionResult analyze_adoption(const AnalysisContext& ctx) {
  // Batch adoption fills the same mergeable tally the live shards keep and
  // finishes through AdoptionTally::finalize(): one arithmetic for Fig. 2,
  // whichever way the counters were fed.
  AdoptionTally t;
  t.observation_days = ctx.options().observation_days;
  t.daily_counts.assign(static_cast<std::size_t>(t.observation_days), 0);

  // Only wearable users have wearable-TAC events, and each appears once.
  // A user's MME rows are time-sorted, so a distinct (user, day) is the
  // first wearable event of a day along them: one last-day stamp per user
  // counts every day once, and the ever/first-week/last-week presence
  // bits are the exact cardinalities the streaming counter's sets hold.
  const int days = t.observation_days;
  const auto& log = ctx.store().mme;
  const DeviceClassifier& devices = ctx.devices();
  for (const UserView* u : ctx.wearable_users()) {
    int last_day = -1;
    unsigned present = 0;  // bit 0: ever, bit 1: first week, bit 2: last
    for_each_row(log, u->mme_rows, [&](const trace::MmeRecord& r) {
      if (!devices.is_wearable(r.tac)) return;
      const int d = util::day_of(r.timestamp);
      if (d < 0 || d >= days || d == last_day) return;
      last_day = d;
      present |= 1U | (d < 7 ? 2U : 0U) | (d >= days - 7 ? 4U : 0U);
      ++t.daily_counts[static_cast<std::size_t>(d)];
    });
    t.ever_registered += present & 1U;
    t.first_week += (present >> 1) & 1U;
    t.last_week += (present >> 2) & 1U;
    t.both_weeks += static_cast<std::size_t>((present & 6U) == 6U);
    if (!u->wearable_rows.empty()) ++t.ever_transacted;
  }
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
