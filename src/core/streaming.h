// Streaming (single-pass, bounded-memory) analyses.
//
// The real collection infrastructure cannot hold five months of a tier-1
// ISP's logs in memory; summary statistics such as Fig. 2's daily adoption
// counters are maintained online at the vantage points (paper §3.1).  This
// header provides those counters: feed StreamingAdoption time-ordered
// records one at a time (e.g. straight from a trace::LogCursor) and
// finalize at the end of the window.  Batch is one more way of feeding
// them — analyze_adoption() fills an AdoptionTally from the users' MME
// rows — so AdoptionTally::finalize() is the only Fig. 2 arithmetic.
//
// Memory: one 8-byte UserState per user (core/user_slots.h)
// plus O(days) counters — never O(records).  Every distinct count is an
// integer bumped at the first sighting of its (user, key) pair, so a
// tally is just the counters: no presence set is kept or walked.
#pragma once

#include <cstdint>
#include <vector>

#include "core/analysis_adoption.h"
#include "core/device_id.h"
#include "core/user_slots.h"
#include "trace/records.h"

namespace wearscope::core {

/// Mergeable summary of one StreamingAdoption instance.  When the record
/// stream is partitioned by user (every user's records land on exactly one
/// counter, as live::IngestRouter guarantees), tallies from the partitions
/// merge into the tally of the whole stream *exactly*: distinct-user sets
/// are disjoint across partitions, so all set cardinalities simply add.
struct AdoptionTally {
  int observation_days = 0;
  std::uint64_t consumed = 0;
  /// Per-day distinct users, with the in-flight day already folded in.
  std::vector<std::size_t> daily_counts;
  std::size_t ever_registered = 0;
  std::size_t ever_transacted = 0;
  std::size_t first_week = 0;
  std::size_t last_week = 0;
  /// |first_week ∩ last_week| (computable per user partition).
  std::size_t both_weeks = 0;

  /// Adds a user-disjoint partition's tally into this one.
  /// Throws util::ConfigError on mismatched observation windows.
  void merge(const AdoptionTally& other);

  /// The Fig. 2 growth, share and churn arithmetic; batch, live and
  /// federated results all come from here, shard-count independent.
  /// Requires daily_counts.size() == observation_days.
  [[nodiscard]] AdoptionResult finalize() const;
};

/// Online Fig. 2 counters. Records may arrive in any order within a day,
/// but days must not interleave backwards by more than the out-of-order
/// tolerance of the feeding reader (our logs are fully time-sorted).
///
/// Two ways in: the record-only on_*() calls resolve the user's state in
/// a UserSlots table of their own, and the slot calls take a UserState
/// the caller keeps (live::ShardStats holds one per user beside its other
/// per-user state, so one table probe serves every counter of the shard).
/// Both run the same slot path; do not mix them on one instance.
class StreamingAdoption {
 public:
  /// Per-user state of the slot path.
  struct UserState {
    int last_day = -1;       ///< Last day this user was counted on.
    std::uint8_t flags = 0;  ///< kRegistered | kTransacted | k*Week bits.
  };

  /// `devices` must outlive the counter. `observation_days` bounds the
  /// per-day vectors.
  StreamingAdoption(const DeviceClassifier& devices, int observation_days);

  /// Feeds one MME event (any device; non-wearable TACs are ignored).
  void on_mme(const trace::MmeRecord& record);

  /// Feeds one proxy transaction (any device; only wearable TACs count).
  void on_proxy(const trace::ProxyRecord& record);

  /// Slot path of on_mme: `user` is the record's user's state and
  /// `wearable` the DeviceClassifier::is_wearable test of its TAC.
  void on_mme(UserState& user, const trace::MmeRecord& record,
              bool wearable);

  /// Slot path of on_proxy (the record itself is not needed).
  void on_proxy(UserState& user, bool wearable);

  /// tally().finalize(): the AdoptionResult analyze_adoption() computes
  /// from the same capture held in memory.
  [[nodiscard]] AdoptionResult finalize() const;

  /// The mergeable counters, always current (live::assemble reads each
  /// shard's in place at snapshot barriers and merges across shards).
  [[nodiscard]] const AdoptionTally& tally() const noexcept { return tally_; }

  /// Number of records consumed (both feeds).
  [[nodiscard]] std::uint64_t records_consumed() const noexcept {
    return tally_.consumed;
  }

 private:
  static constexpr std::uint8_t kRegistered = 1;
  static constexpr std::uint8_t kTransacted = 2;
  static constexpr std::uint8_t kFirstWeek = 4;
  static constexpr std::uint8_t kLastWeek = 8;

  const DeviceClassifier* devices_;
  int current_day_ = -1;  ///< Latest day counted (days never go back).
  AdoptionTally tally_;

  UserSlots<UserState> users_;  ///< The record-only path's states.
};

}  // namespace wearscope::core
