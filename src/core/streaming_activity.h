// Streaming counterpart of analyze_activity() (Fig. 3b/c/d): single-pass,
// per-user microscopic activity counters over the detailed window.
//
// Feed time-ordered proxy records one at a time; finalize() hands the
// per-user day counts and per-slot runs to the same ActivityFinisher the
// batch kernel uses, so both produce the ActivityResult of a capture
// *bitwise*.  ECDF-derived statistics are order-free because util::Ecdf
// canonicalizes sample order.  The two Fig. 3d correlation scalars are
// order-*sensitive* — the finisher must see users in proxy-log appearance
// order — so each on_proxy() call takes the record's global stream
// position and finalize() replays the batch's exact user order from the
// per-user first-appearance sequence.  The result is independent of how
// users were partitioned across instances.
//
// Memory: O(users x active day-hours in the detailed window), one sequence
// number per distinct proxy user, one small UserState per user
// (core/user_slots.h), plus one double per detailed-window
// transaction for the exact size ECDF.  A deployment that cannot afford
// the latter would swap in a quantile sketch; we keep the exact sample so
// streaming/batch equivalence stays testable to the bit.  sort_new_sizes()
// keeps that sample sorted: it sorts only the sizes that arrived since the
// previous call and merges them into the sorted prefix, so neither a
// snapshot nor Ecdf re-sorts the whole history.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/analysis_activity.h"
#include "core/device_id.h"
#include "core/user_slots.h"
#include "trace/records.h"

namespace wearscope::core {

/// Mergeable state of one StreamingActivity instance.  Partitions must be
/// user-disjoint (each user's records all land on one instance): merging
/// then concatenates per-user states without collisions and the merged
/// finalize() is independent of the partitioning.
struct ActivityTally {
  /// Per-user activity in the detailed window.
  struct UserActivity {
    /// day -> distinct active hours.
    std::map<int, std::set<int>> day_hours;
    /// day*24+hour -> transactions / bytes in that hour.
    std::unordered_map<int, double> hour_txns;
    std::unordered_map<int, double> hour_bytes;
  };

  int observation_days = 0;
  int detailed_start_day = 0;
  std::unordered_map<trace::UserId, UserActivity> users;
  /// user -> stream position of their first proxy record (any TAC, any
  /// window — mirroring how the batch context slots users).  Drives the
  /// finalize() iteration order.
  std::unordered_map<trace::UserId, std::uint64_t> first_seen;
  /// Size of every detailed-window wearable transaction, in bytes
  /// (ascending in every tally StreamingActivity hands out; a partial
  /// written before that held them in arrival order, which still merges).
  std::vector<double> txn_sizes;

  /// Adds a user-disjoint partition's tally into this one.  Two sorted
  /// size samples merge in one linear pass and stay sorted; if either is
  /// unsorted they are concatenated.
  /// Throws util::ConfigError on window mismatch or a shared user id
  /// (which would mean the partitioner broke the shard-by-user invariant).
  void merge(ActivityTally other);

  /// Finishes everything consumed so far through the ActivityFinisher
  /// analyze_activity() uses (finalize_activity() over this one part).
  [[nodiscard]] ActivityResult finalize() const;
};

/// Finalizes the union of user-disjoint parts in place, without merging
/// them: bitwise the ActivityResult of merging the parts in order and
/// calling finalize().  Users are visited in (first_seen, user) order over
/// all parts, each user's activity read from its own part; sorted size
/// samples are merged, and if any part's sample is unsorted the samples
/// are concatenated and left to Ecdf, which sorts.
/// Throws util::ConfigError on mismatched observation windows.
[[nodiscard]] ActivityResult finalize_activity(
    std::span<const ActivityTally* const> parts);

/// Online Fig. 3b/c/d counters for one user partition.  Like
/// StreamingAdoption it has a record-only on_proxy() that resolves the
/// user's state in a UserSlots table of its own and a slot on_proxy() for
/// callers that keep the UserState themselves; both run the same slot
/// path.  A UserState points into the tally, so the counter moves but
/// never copies.
class StreamingActivity {
 public:
  /// Per-user state of the slot path.
  struct UserState {
    /// The user's entry in tally().users, once they have a wearable
    /// transaction in the detailed window.
    ActivityTally::UserActivity* activity = nullptr;
    /// The (day, hour) slot the user was last active in, day*24+hour, and
    /// its two accumulators in `activity`: consecutive transactions of one
    /// hour touch no map.
    int slot = -1;
    double* slot_txns = nullptr;
    double* slot_bytes = nullptr;
    bool seen = false;  ///< tally().first_seen holds the user.
  };

  /// `devices` must outlive the counter.  `detailed_start_day` and
  /// `observation_days` describe the analysis window exactly as
  /// AnalysisOptions does.
  StreamingActivity(const DeviceClassifier& devices, int observation_days,
                    int detailed_start_day);
  StreamingActivity(StreamingActivity&&) = default;
  StreamingActivity& operator=(StreamingActivity&&) = default;
  StreamingActivity(const StreamingActivity&) = delete;
  StreamingActivity& operator=(const StreamingActivity&) = delete;

  /// Feeds one proxy transaction (non-wearable TACs and records before the
  /// detailed window are ignored, mirroring the batch analysis).  `seq` is
  /// the record's position in the global proxy stream — any strictly
  /// monotone stamp works; it only has to order first appearances the way
  /// the batch context does.
  void on_proxy(const trace::ProxyRecord& record, std::uint64_t seq);

  /// Slot path of on_proxy: `user` is the record's user's state and
  /// `wearable` the DeviceClassifier::is_wearable test of its TAC.
  void on_proxy(UserState& user, const trace::ProxyRecord& record,
                std::uint64_t seq, bool wearable);

  /// Sorts the sizes that arrived since the previous call and merges them
  /// into the sorted sample, so tally() hands out an ascending one.
  void sort_new_sizes();

  /// The mergeable counters (tally().txn_sizes is ascending up to the
  /// last sort_new_sizes()).
  [[nodiscard]] const ActivityTally& tally() const noexcept { return tally_; }

  /// Convenience: finalize the local partition alone.
  [[nodiscard]] ActivityResult finalize() const { return tally_.finalize(); }

 private:
  const DeviceClassifier* devices_;
  util::SimTime detailed_start_ = 0;
  ActivityTally tally_;
  /// tally_.txn_sizes[0, sorted_sizes_) is sorted.
  std::size_t sorted_sizes_ = 0;

  UserSlots<UserState> users_;  ///< The record-only path's states.
};

}  // namespace wearscope::core
