#include "core/streaming.h"

#include <algorithm>

#include "util/error.h"
#include "util/stats.h"

namespace wearscope::core {

StreamingAdoption::StreamingAdoption(const DeviceClassifier& devices,
                                     int observation_days)
    : devices_(&devices) {
  util::require(observation_days > 0,
                "StreamingAdoption: observation_days must be positive");
  tally_.observation_days = observation_days;
  tally_.daily_counts.assign(static_cast<std::size_t>(observation_days), 0);
}

void StreamingAdoption::on_mme(const trace::MmeRecord& record) {
  on_mme(users_[record.user_id], record, devices_->is_wearable(record.tac));
}

void StreamingAdoption::on_proxy(const trace::ProxyRecord& record) {
  on_proxy(users_[record.user_id], devices_->is_wearable(record.tac));
}

void StreamingAdoption::on_mme(UserState& user,
                               const trace::MmeRecord& record,
                               bool wearable) {
  ++tally_.consumed;
  if (!wearable) return;
  const int days = tally_.observation_days;
  const int day = util::day_of(record.timestamp);
  if (day < 0 || day >= days) return;
  util::require(day >= current_day_,
                "StreamingAdoption: records must arrive in day order");
  current_day_ = day;
  if (user.last_day != day) {
    user.last_day = day;
    ++tally_.daily_counts[static_cast<std::size_t>(day)];
  }
  const std::uint8_t seen = user.flags;
  user.flags |= kRegistered;
  if (day < 7) user.flags |= kFirstWeek;
  if (day >= days - 7) user.flags |= kLastWeek;
  const auto added = static_cast<std::uint8_t>(user.flags & ~seen);
  if (added == 0) return;
  if ((added & kRegistered) != 0) ++tally_.ever_registered;
  if ((added & kFirstWeek) != 0) ++tally_.first_week;
  if ((added & kLastWeek) != 0) ++tally_.last_week;
  constexpr std::uint8_t kBoth = kFirstWeek | kLastWeek;
  if ((added & kBoth) != 0 && (user.flags & kBoth) == kBoth) {
    ++tally_.both_weeks;
  }
}

void StreamingAdoption::on_proxy(UserState& user, bool wearable) {
  ++tally_.consumed;
  if (!wearable || (user.flags & kTransacted) != 0) return;
  user.flags |= kTransacted;
  ++tally_.ever_transacted;
}

AdoptionResult StreamingAdoption::finalize() const {
  return tally_.finalize();
}

void AdoptionTally::merge(const AdoptionTally& other) {
  if (observation_days == 0 && daily_counts.empty()) {
    *this = other;
    return;
  }
  util::require(other.observation_days == observation_days &&
                    other.daily_counts.size() == daily_counts.size(),
                "AdoptionTally::merge: mismatched observation windows");
  consumed += other.consumed;
  for (std::size_t d = 0; d < daily_counts.size(); ++d) {
    daily_counts[d] += other.daily_counts[d];
  }
  ever_registered += other.ever_registered;
  ever_transacted += other.ever_transacted;
  first_week += other.first_week;
  last_week += other.last_week;
  both_weeks += other.both_weeks;
}

AdoptionResult AdoptionTally::finalize() const {
  AdoptionResult res;
  const std::vector<std::size_t>& counts = daily_counts;

  res.ever_registered = ever_registered;
  res.ever_transacted = ever_transacted;
  if (ever_registered > 0) {
    res.ever_transacting_fraction = static_cast<double>(ever_transacted) /
                                    static_cast<double>(ever_registered);
  }

  const double last =
      counts.empty() ? 0.0 : static_cast<double>(counts.back());
  res.daily_registered_norm.reserve(counts.size());
  for (const std::size_t c : counts) {
    res.daily_registered_norm.push_back(
        last > 0.0 ? static_cast<double>(c) / last : 0.0);
  }

  util::OnlineStats first_avg;
  util::OnlineStats last_avg;
  for (int d = 0; d < 7 && d < observation_days; ++d)
    first_avg.add(static_cast<double>(counts[static_cast<std::size_t>(d)]));
  for (int d = std::max(0, observation_days - 7); d < observation_days; ++d)
    last_avg.add(static_cast<double>(counts[static_cast<std::size_t>(d)]));
  if (first_avg.mean() > 0.0) {
    res.total_growth = last_avg.mean() / first_avg.mean() - 1.0;
    res.monthly_growth =
        res.total_growth / (static_cast<double>(observation_days) / 30.4);
  }

  const std::size_t both = both_weeks;
  const std::size_t uni = first_week + last_week - both;
  if (uni > 0) {
    res.still_active_share =
        static_cast<double>(both) / static_cast<double>(uni);
    res.gone_share =
        static_cast<double>(first_week - both) / static_cast<double>(uni);
    res.new_share =
        static_cast<double>(last_week - both) / static_cast<double>(uni);
  }
  if (first_week > 0) {
    res.churned_of_initial = static_cast<double>(first_week - both) /
                             static_cast<double>(first_week);
  }
  return res;
}

}  // namespace wearscope::core
