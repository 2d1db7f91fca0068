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
  on_proxy(users_[record.user_id], record, seq,
           devices_->is_wearable(record.tac));
}

void StreamingActivity::on_proxy(UserState& user,
                                 const trace::ProxyRecord& record,
                                 std::uint64_t seq, bool wearable) {
  // Every proxy record slots its user, exactly like the batch context —
  // the iteration order of finalize() depends on it.
  if (!user.seen) {
    user.seen = true;
    tally_.first_seen.emplace(record.user_id, seq);
  }
  if (!wearable) return;
  if (record.timestamp < detailed_start_) return;
  const int day = util::day_of(record.timestamp);
  const int hour = util::hour_of(record.timestamp);
  const int slot = day * 24 + hour;
  if (slot != user.slot) {
    if (user.activity == nullptr) user.activity = &tally_.users[record.user_id];
    ActivityTally::UserActivity& u = *user.activity;
    u.day_hours[day].insert(hour);
    user.slot = slot;
    user.slot_txns = &u.hour_txns[slot];
    user.slot_bytes = &u.hour_bytes[slot];
  }
  const auto bytes = static_cast<double>(record.bytes_total());
  *user.slot_txns += 1.0;
  *user.slot_bytes += bytes;
  tally_.txn_sizes.push_back(bytes);
}

void StreamingActivity::sort_new_sizes() {
  std::vector<double>& sizes = tally_.txn_sizes;
  const auto fresh = sizes.begin() + static_cast<std::ptrdiff_t>(sorted_sizes_);
  std::sort(fresh, sizes.end());
  std::inplace_merge(sizes.begin(), fresh, sizes.end());
  sorted_sizes_ = sizes.size();
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
  const bool sorted =
      std::is_sorted(txn_sizes.begin(), txn_sizes.end()) &&
      std::is_sorted(other.txn_sizes.begin(), other.txn_sizes.end());
  const auto mid = static_cast<std::ptrdiff_t>(txn_sizes.size());
  txn_sizes.insert(txn_sizes.end(), other.txn_sizes.begin(),
                   other.txn_sizes.end());
  if (sorted) {
    std::inplace_merge(txn_sizes.begin(), txn_sizes.begin() + mid,
                       txn_sizes.end());
  }
}

ActivityResult ActivityTally::finalize() const {
  const ActivityTally* self = this;
  return finalize_activity({&self, 1});
}

ActivityResult finalize_activity(std::span<const ActivityTally* const> parts) {
  util::require(!parts.empty(), "finalize_activity: no parts");
  const ActivityTally& first = *parts.front();
  // Replays the batch user order: analyze_activity() walks users by first
  // appearance in the proxy log, and the shared finisher's Fig. 3d
  // scalars depend on that order, so sort on the first_seen stamps (user
  // id breaks the never-occurring tie, keeping the order total either way).
  struct Entry {
    std::uint64_t seq = 0;
    trace::UserId user = 0;
    const ActivityTally::UserActivity* activity = nullptr;
  };
  std::vector<Entry> order;
  // Ecdf sorts an unsorted sample itself, so any arrangement of the same
  // multiset finishes bitwise alike; sorted parts merge in linear passes.
  std::vector<double> txn_sizes;
  bool sorted = true;
  for (const ActivityTally* part : parts) {
    util::require(part->observation_days == first.observation_days &&
                      part->detailed_start_day == first.detailed_start_day,
                  "finalize_activity: mismatched observation windows");
    for (const auto& [id, activity] : part->users) {
      const auto it = part->first_seen.find(id);
      order.push_back(Entry{it != part->first_seen.end()
                                ? it->second
                                : std::numeric_limits<std::uint64_t>::max(),
                            id, &activity});
    }
    const auto mid = static_cast<std::ptrdiff_t>(txn_sizes.size());
    txn_sizes.insert(txn_sizes.end(), part->txn_sizes.begin(),
                     part->txn_sizes.end());
    sorted = sorted &&
             std::is_sorted(part->txn_sizes.begin(), part->txn_sizes.end());
    if (sorted) {
      std::inplace_merge(txn_sizes.begin(), txn_sizes.begin() + mid,
                         txn_sizes.end());
    }
  }
  std::sort(order.begin(), order.end(), [](const Entry& a, const Entry& b) {
    return a.seq != b.seq ? a.seq < b.seq : a.user < b.user;
  });

  ActivityFinisher finisher(
      detailed_window_weeks(first.observation_days, first.detailed_start_day));
  std::vector<int> slots;
  std::vector<double> slot_txns;
  std::vector<double> slot_bytes;
  for (const Entry& entry : order) {
    const ActivityTally::UserActivity& u = *entry.activity;
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

  return std::move(finisher).finish(std::move(txn_sizes));
}

}  // namespace wearscope::core
