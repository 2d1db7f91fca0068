#include "core/streaming_activity.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/error.h"
#include "util/sim_time.h"

namespace wearscope::core {

StreamingActivity::StreamingActivity(const DeviceClassifier& devices,
                                     int observation_days,
                                     int detailed_start_day)
    : devices_(&devices) {
  require_analysis_window(observation_days, detailed_start_day);
  tally_.observation_days = observation_days;
  tally_.detailed_start_day = detailed_start_day;
  detailed_start_ = util::day_start(detailed_start_day);
}

void StreamingActivity::on_proxy(const trace::ProxyRecord& record,
                                 std::uint64_t seq) {
  // Every proxy record slots its user, exactly like the batch context —
  // the iteration order of finalize() depends on it.
  tally_.first_seen.try_emplace(record.user_id, seq);
  if (!devices_->is_wearable(record.tac)) return;
  if (record.timestamp < detailed_start_) return;
  const int day = util::day_of(record.timestamp);
  const int hour = util::hour_of(record.timestamp);
  ActivityTally::UserActivity& u = tally_.users[record.user_id];
  u.day_hours[day].insert(hour);
  u.hour_txns[day * 24 + hour] += 1.0;
  u.hour_bytes[day * 24 + hour] += static_cast<double>(record.bytes_total());
  tally_.txn_sizes.push_back(static_cast<double>(record.bytes_total()));
}

void ActivityTally::merge(ActivityTally other) {
  if (users.empty() && first_seen.empty() && txn_sizes.empty() &&
      observation_days == 0) {
    *this = std::move(other);
    return;
  }
  util::require(other.observation_days == observation_days &&
                    other.detailed_start_day == detailed_start_day,
                "ActivityTally::merge: mismatched observation windows");
  for (auto& [id, activity] : other.users) {
    const bool inserted = users.emplace(id, std::move(activity)).second;
    util::require(inserted,
                  "ActivityTally::merge: user present in two partitions "
                  "(shard-by-user invariant broken)");
  }
  for (const auto& [id, seq] : other.first_seen) {
    const bool inserted = first_seen.emplace(id, seq).second;
    util::require(inserted,
                  "ActivityTally::merge: user present in two partitions "
                  "(shard-by-user invariant broken)");
  }
  txn_sizes.insert(txn_sizes.end(), other.txn_sizes.begin(),
                   other.txn_sizes.end());
}

ActivityResult ActivityTally::finalize() const {
  // Replays the batch user order: analyze_activity() walks users by first
  // appearance in the proxy log, and the shared finisher's Fig. 3d
  // scalars depend on that order, so sort on the first_seen stamps (user
  // id breaks the never-occurring tie, keeping the order total either way).
  std::vector<std::pair<std::uint64_t, trace::UserId>> order;
  order.reserve(users.size());
  for (const auto& [id, activity] : users) {
    const auto it = first_seen.find(id);
    order.emplace_back(it != first_seen.end()
                           ? it->second
                           : std::numeric_limits<std::uint64_t>::max(),
                       id);
  }
  std::sort(order.begin(), order.end());

  ActivityFinisher finisher(
      detailed_window_weeks(observation_days, detailed_start_day));
  std::vector<int> slots;
  std::vector<double> slot_txns;
  std::vector<double> slot_bytes;
  for (const auto& [seq, id] : order) {
    const UserActivity& u = users.at(id);
    // Per-slot values in slot order, not hash order, exactly as the batch
    // kernel's run accumulation emits them.
    slots.clear();
    slot_txns.clear();
    slot_bytes.clear();
    for (const auto& [slot, n] : u.hour_txns) slots.push_back(slot);
    std::sort(slots.begin(), slots.end());
    for (const int slot : slots) {
      slot_txns.push_back(u.hour_txns.at(slot));
      slot_bytes.push_back(u.hour_bytes.at(slot));
    }
    finisher.add_user(u.day_hours.size(), slot_txns, slot_bytes);
  }
  return std::move(finisher).finish(txn_sizes);
}

}  // namespace wearscope::core
