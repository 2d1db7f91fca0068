// Epoch snapshots: consistent, finalized views of user-disjoint parts.
//
// The engine broadcasts a SnapshotBarrier for epoch E through every shard
// ring (single producer => same stream position on each shard).  Once
// every shard has popped it, the feed thread reads the shards' tallies in
// place and assemble() combines them and finalizes them into the same
// result structures the batch pipeline produces.  The snapshot therefore
// corresponds to an exact prefix of the input stream — the records routed
// before the barrier — no matter how far individual shards had drained
// their rings when it was taken.  The same assemble() serves the
// sequential reference (serve/reference.h, one part) and the federated
// merge (fed/merge.h, one part per partition).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis_activity.h"
#include "core/analysis_adoption.h"
#include "live/ring_buffer.h"
#include "live/shard_stats.h"
#include "trace/quarantine.h"

namespace wearscope::live {

/// One merged, finalized epoch snapshot.
struct LiveSnapshot {
  std::uint64_t epoch = 0;
  std::uint64_t records = 0;  ///< Records included in the cut (all shards).
  /// Records the feed offered to the router up to the cut — equals
  /// `records` in a single process; in partitioned mode it is the full
  /// feed's position while `records` counts only the owned partition
  /// (filled by the engine, not assemble()).  The federated merge requires
  /// the owned counts of a cover to sum to exactly this.
  std::uint64_t feed_records = 0;
  core::AdoptionResult adoption;
  core::ActivityResult activity;
  /// Per-app rows sorted by (transactions desc, app id) — deterministic
  /// for every shard count.
  struct AppRow {
    appdb::AppId app = core::kUnknownApp;
    std::string name;
    AppTally::Counter counter;
  };
  std::vector<AppRow> apps;
  /// Per-sector activity sorted by (events desc, sector id) — deterministic
  /// for every shard count.
  struct SectorRow {
    trace::SectorId sector = 0;
    SectorTally::Counter counter;
  };
  std::vector<SectorRow> sectors;
  /// Wearable transactions per endpoint class (Application/Utilities/
  /// Advertising/Analytics).
  std::array<std::uint64_t, appdb::kTransactionClassCount> class_txns{};
  /// Sketch-mode summary, filled from the merged per-shard sketches when
  /// the engine runs with LiveOptions::sketch_aggregates (enabled stays
  /// false otherwise).  Error bounds: docs/DESIGN.md.
  struct SketchSummary {
    bool enabled = false;
    double registered_users = 0.0;   ///< HLL estimate (exact: adoption).
    double transacting_users = 0.0;  ///< HLL estimate.
    double txn_size_p50 = 0.0;       ///< t-digest quantiles (bytes).
    double txn_size_p95 = 0.0;
    double txn_size_p99 = 0.0;
    /// Heaviest apps by wearable transactions (top 10, count desc).
    std::vector<std::pair<std::string, std::uint64_t>> top_apps;
    /// Merged sketch footprint in bytes (the bounded-memory claim).
    std::size_t memory_bytes = 0;
  };
  SketchSummary sketch;
  /// Ring totals at assembly time (filled by the engine, not assemble()).
  RingStats backpressure;
  /// Records the feed side quarantined before they ever reached a ring
  /// (filled by the engine from add_quarantine(), not assemble()).
  trace::QuarantineStats quarantine;

  /// The *mergeable* state behind the finalized figures above: the
  /// shard-merged tallies, before finalize().  Federation serializes these
  /// (fed/partial_io) so partial snapshots from user-disjoint partitions
  /// can be combined exactly.  Only captured when assemble() is asked to
  /// (null otherwise — serving pays nothing).
  struct TallySet {
    core::AdoptionTally adoption;
    core::ActivityTally activity;
    AppTally apps;
    SectorTally sectors;
    SketchTally sketch;
  };
  std::shared_ptr<const TallySet> tallies;
};

/// Combines user-disjoint parts, in the given order, into the finalized
/// snapshot of `epoch`: counters add, activity finalizes over the parts in
/// place (core::finalize_activity), and sketches merge only when enabled.
/// `signatures` resolves app display names.  With `capture_tallies` the
/// snapshot also keeps the merged pre-finalize tallies
/// (LiveSnapshot::tallies), copied out of the parts.  The parts are only
/// read, so they must not change until assemble() returns.
[[nodiscard]] LiveSnapshot assemble(std::uint64_t epoch,
                                    std::span<const TallyView> parts,
                                    const core::AppSignatureTable& signatures,
                                    bool capture_tallies = false);

}  // namespace wearscope::live
