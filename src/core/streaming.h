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
// Memory: O(users) for the presence sets plus O(days) counters — never
// O(records).
#pragma once

#include <unordered_set>
#include <vector>

#include "core/analysis_adoption.h"
#include "core/device_id.h"
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
class StreamingAdoption {
 public:
  /// `devices` must outlive the counter. `observation_days` bounds the
  /// per-day vectors.
  StreamingAdoption(const DeviceClassifier& devices, int observation_days);

  /// Feeds one MME event (any device; non-wearable TACs are ignored).
  void on_mme(const trace::MmeRecord& record);

  /// Feeds one proxy transaction (any device; only wearable TACs count).
  void on_proxy(const trace::ProxyRecord& record);

  /// tally().finalize(): the AdoptionResult analyze_adoption() computes
  /// from the same capture held in memory.
  [[nodiscard]] AdoptionResult finalize() const;

  /// Snapshots the counters into a mergeable tally (shard workers call
  /// this at snapshot barriers; the coordinator merges across shards).
  [[nodiscard]] AdoptionTally tally() const;

  /// Number of records consumed (both feeds).
  [[nodiscard]] std::uint64_t records_consumed() const noexcept {
    return consumed_;
  }

 private:
  const DeviceClassifier* devices_;
  int observation_days_;
  std::uint64_t consumed_ = 0;

  // Per-day distinct-user tracking with one rolling set: logs are
  // time-sorted, so once the day advances the previous day's set is frozen
  // into a plain count.
  int current_day_ = -1;
  std::unordered_set<trace::UserId> current_day_users_;
  std::vector<std::size_t> daily_counts_;

  std::unordered_set<trace::UserId> first_week_;
  std::unordered_set<trace::UserId> last_week_;
  std::unordered_set<trace::UserId> ever_registered_;
  std::unordered_set<trace::UserId> ever_transacted_;

  void roll_to(int day);
};

}  // namespace wearscope::core
