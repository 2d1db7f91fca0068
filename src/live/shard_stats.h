// Per-shard streaming state of the live-ingest engine.
//
// A ShardStats instance is owned by exactly one ShardWorker thread and is
// only ever touched from that thread — the router's shard-by-user
// partitioning makes every per-user structure single-writer by
// construction, which is why none of this needs a lock.
//
// It drives the core single-pass counters (StreamingAdoption for Fig. 2,
// StreamingActivity for Fig. 3b/c/d) and adds live-only counters:
// per-app transactions/bytes/distinct-users plus an incremental 60 s
// sessionizer that counts app usages online (the paper's §5.1 usage
// definition, maintained with one "last transaction time" per (user, app)
// instead of a buffered record window), and per-sector events and
// distinct users.
//
// Per event the shard probes its UserSlots once and tests the TAC once.
// The user's slot holds everything per-user: the adoption and
// activity UserStates, the sectors the user was seen at (with a
// wearable bit) and the apps they used (with the last transaction time).
// Each list entry points at its counter, so a repeat visit touches no
// map, and a distinct-user count is bumped when its (user, key) pair is
// first seen — so the tallies are always current, and an epoch snapshot
// reads them in place through view() without walking per-user state.
// Memory: O(users + (user, sector) + (user, app) pairs), no presence sets.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "appdb/third_party.h"
#include "core/app_id.h"
#include "core/device_id.h"
#include "core/streaming.h"
#include "core/streaming_activity.h"
#include "core/user_slots.h"
#include "sketch/countmin.h"
#include "sketch/hll.h"
#include "sketch/tdigest.h"
#include "trace/records.h"
#include "trace/string_pool.h"

namespace wearscope::live {

/// Mergeable per-sector activity counters.  Shards partition users, not
/// sectors, so one sector accumulates contributions from many shards —
/// but the per-shard user sets behind the distinct counts are disjoint,
/// which is why merge() can simply add them.
struct SectorTally {
  struct Counter {
    std::uint64_t events = 0;          ///< All MME events at the sector.
    std::uint64_t attaches = 0;
    std::uint64_t handovers = 0;
    std::uint64_t wearable_events = 0; ///< Events from wearable TACs.
    std::uint64_t distinct_users = 0;
    std::uint64_t wearable_users = 0;  ///< Users with a wearable event.

    friend bool operator==(const Counter&, const Counter&) = default;
  };
  std::unordered_map<trace::SectorId, Counter> sectors;

  void merge(const SectorTally& other);
};

/// Mergeable per-app counters (user-disjoint partitions: distinct-user
/// counts simply add).
struct AppTally {
  struct Counter {
    std::uint64_t transactions = 0;
    std::uint64_t bytes = 0;
    std::uint64_t usages = 0;
    std::uint64_t distinct_users = 0;

    friend bool operator==(const Counter&, const Counter&) = default;
  };
  /// Per first-party app (core::kUnknownApp buckets unattributed traffic).
  std::unordered_map<appdb::AppId, Counter> apps;
  /// Wearable transactions per endpoint class (Fig. 8 headline).
  std::array<std::uint64_t, appdb::kTransactionClassCount> class_txns{};

  void merge(const AppTally& other);
};

/// Bounded-memory replacement for the per-user exact state (engine sketch
/// mode, LiveOptions::sketch_aggregates).  Shards partition users, so the
/// per-shard sketches merge loss-free into the global stream's sketch:
/// HLL union is register-wise max, t-digest and count-min merges are
/// additive.  Error bounds are documented in docs/DESIGN.md: distinct
/// users within 2%, p50/p95/p99 within 1%, top-k apps a superset of the
/// exact top-k.
struct SketchTally {
  bool enabled = false;
  sketch::Hll registered_users;   ///< Distinct users with wearable MME events.
  sketch::Hll transacting_users;  ///< Distinct users with >= 1 wearable txn.
  /// Wearable transaction sizes (bytes), detailed window only — the same
  /// population as ActivityResult::txn_size_bytes, so the gate compares
  /// like with like.
  sketch::TDigest txn_sizes;
  sketch::HeavyHitters apps;      ///< Wearable app traffic, by transactions.

  void merge(const SketchTally& other);

  /// Bytes of sketch state held (the bounded footprint).
  [[nodiscard]] std::size_t memory_bytes() const;
};

/// Read-only view of one part's mergeable tallies: a shard's, read in
/// place at a barrier, or a decoded federation partial's.  live::assemble
/// combines the views of user-disjoint parts into one snapshot.
struct TallyView {
  std::uint64_t records = 0;  ///< Records the part consumed.
  const core::AdoptionTally* adoption = nullptr;
  const core::ActivityTally* activity = nullptr;
  const AppTally* apps = nullptr;
  const SectorTally* sectors = nullptr;
  const SketchTally* sketch = nullptr;
};

/// Where a live feed's host pool is published.  The feed thread sets
/// `pool` (LiveEngine::bind_hosts) before it pushes the first proxy record;
/// a shard reads it only after popping one, so the ring hand-off orders
/// the two.  The pool must stay alive and unchanged while records flow.
struct HostBinding {
  const trace::StringPool* pool = nullptr;
};

/// All streaming state of one shard.
class ShardStats {
 public:
  /// `devices`, `signatures` and `hosts` must outlive the stats (the
  /// engine owns all three; they are immutable while records flow, hence
  /// safe to share read-only across shards); proxy host ids index
  /// `hosts.pool`.  With `sketch_mode` set, every per-user
  /// structure is replaced by the bounded SketchTally: the shard holds
  /// O(sketch + apps + sectors) bytes however many users it sees, at the
  /// price of approximate distinct counts and quantiles (and no exact
  /// adoption/activity results or usage counts in the snapshot).
  ShardStats(const core::DeviceClassifier& devices,
             const core::AppSignatureTable& signatures,
             const HostBinding& hosts, int observation_days,
             int detailed_start_day, util::SimTime usage_gap_s,
             bool sketch_mode = false);

  /// Feeds one proxy transaction; `seq` is the record's position in the
  /// global proxy stream (stamped by the router).
  void on_proxy(const trace::ProxyRecord& record, std::uint64_t seq);

  /// Feeds one MME event.
  void on_mme(const trace::MmeRecord& record);

  /// Sorts the transaction sizes that arrived since the previous call, so
  /// view() shows an ascending sample.  The owning thread calls it at each
  /// barrier.
  void sort_new_sizes() { activity_.sort_new_sizes(); }

  /// The current tallies, in place.  The view stays valid for the life of
  /// the stats and shows later events as they are consumed, so a reader
  /// on another thread must be ordered between two of them (LiveEngine's
  /// arrival barrier does that).
  [[nodiscard]] TallyView view() const;

  /// Records consumed so far (both feeds).
  [[nodiscard]] std::uint64_t records_consumed() const noexcept {
    return consumed_;
  }

  /// Users holding a per-user slot (always 0 in sketch mode).
  [[nodiscard]] std::size_t tracked_users() const noexcept {
    return users_.size();
  }

 private:
  /// A sector the user was seen at.
  struct SectorVisit {
    trace::SectorId sector = 0;
    bool wearable = false;  ///< Counted in counter->wearable_users.
    SectorTally::Counter* counter = nullptr;
  };
  /// An app the user transacted with.
  struct AppVisit {
    appdb::AppId app = core::kUnknownApp;
    util::SimTime last_txn = -1;  ///< The incremental sessionizer's state.
    AppTally::Counter* counter = nullptr;
  };
  /// Everything the shard keeps per user.
  struct UserSlot {
    core::StreamingAdoption::UserState adoption;
    core::StreamingActivity::UserState activity;
    std::vector<SectorVisit> sectors;
    std::vector<AppVisit> apps;
  };

  SectorVisit& visit_sector(UserSlot& user, trace::SectorId sector);
  AppVisit& visit_app(UserSlot& user, appdb::AppId app);

  const core::DeviceClassifier* devices_ = nullptr;
  const core::AppSignatureTable* signatures_ = nullptr;
  const HostBinding* hosts_ = nullptr;
  /// Per-shard classify memo over the bound pool, built at the first
  /// wearable transaction.
  std::optional<core::HostClassCache> host_classes_;
  util::SimTime usage_gap_s_ = 0;
  util::SimTime detailed_start_ = 0;  ///< First second of the detailed window.
  bool sketch_mode_ = false;
  std::uint64_t consumed_ = 0;
  SketchTally sketch_;

  core::StreamingAdoption adoption_;
  core::StreamingActivity activity_;

  /// The counters' list entries point into these maps (node-based, so the
  /// pointers survive rehashing).
  AppTally app_tally_;
  SectorTally sector_tally_;

  /// Empty in sketch mode, which keeps no per-user state.
  core::UserSlots<UserSlot> users_;
};

}  // namespace wearscope::live
