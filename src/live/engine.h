// wearscope::live — the concurrent live-ingest engine.
//
// The batch pipeline (core::Pipeline) buffers a whole capture and analyzes
// it after the fact; the paper's vantage points cannot do that — they run
// *online* against a tier-1 ISP's traffic.  LiveEngine is that online
// counterpart: a single feed thread pushes time-ordered records, an
// IngestRouter hash-partitions them by UserId across N shard workers, each
// worker maintains single-pass statistics for its user partition, and
// epoch snapshots combine the shards' statistics into consistent results
// on demand (or periodically, driven by FeedReplayer).
//
// Equivalence contract: after stop(), the final snapshot's AdoptionResult
// and ActivityResult are bit-identical to core::Pipeline's over the same
// capture, for ANY shard count — including the order-sensitive Fig. 3d
// correlations, which finalize() reproduces by replaying the batch's
// user-appearance order from router-stamped stream positions (see
// core/streaming_activity.h).
//
// Threading contract: exactly one thread calls push()/flush()/snapshot()/
// stop().  Worker threads are internal; all shared state is either
// immutable after construction (DeviceClassifier, AppSignatureTable),
// bound once by the feed thread before the first push (the host pool,
// bind_hosts), or owned by exactly one thread (ShardStats), so the only
// synchronization on the hot path is the SPSC ring per shard.  push()
// stages records and commits them to the rings in batches, so a pushed
// record may wait on the feed thread until its shard's batch fills, the
// next snapshot()/stop(), or an explicit flush() — a feed that pauses
// (FeedReplayer's paced replay) flushes before it sleeps.
//
// Snapshot contract: snapshot()/stop() broadcast a barrier, wait until
// every worker has popped it (ArrivalBarrier), and then read each shard's
// stats in place on the feed thread, with no copy.  This is safe because
// (1) the feed thread is the only producer and pushes nothing until
// assembly returns, and (2) a worker writes its stats only after popping
// an event, so the next ring hand-off orders the feed thread's reads
// before the worker's next writes — the same ordering HostBinding relies
// on.  A change that lets the feed push during assembly breaks (1) and
// would need per-epoch copies of the shard state again.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "appdb/app_catalog.h"
#include "core/app_id.h"
#include "core/device_id.h"
#include "core/sessionize.h"
#include "live/router.h"
#include "live/shard_worker.h"
#include "live/snapshot.h"
#include "util/sim_time.h"

namespace wearscope::live {

/// Engine configuration.
struct LiveOptions {
  /// Worker shards (user partitions).
  std::size_t shards = 4;
  /// Events buffered per shard ring before the feed blocks.
  std::size_t ring_capacity = 4096;
  /// Analysis window, exactly as core::AnalysisOptions describes it.
  int observation_days = util::kObservationDays;
  int detailed_start_day = util::kDetailedStartDay;
  /// Usage sessionization gap (paper: 60 s).
  util::SimTime usage_gap_s = core::kDefaultUsageGapS;
  /// Knowledge-base size for the app signature table (matches
  /// AnalysisOptions::long_tail_apps).
  std::uint32_t long_tail_apps = 150;
  /// Fraction of signature rules retained.
  double signature_coverage = 1.0;
  /// Bounded-memory mode: shards keep HLL/t-digest/count-min sketches
  /// instead of per-user hash sets, so per-shard memory is O(sketch)
  /// however many users stream through.  Snapshots then carry
  /// LiveSnapshot::sketch (with the error bounds of docs/DESIGN.md) and
  /// no exact adoption/activity results, usage counts or per-app/sector
  /// distinct-user counts.
  bool sketch_aggregates = false;
  /// Multi-process partitioned mode: this engine owns the users whose
  /// par::shard_of(user, partition_count) == partition_id and filters
  /// everything else at the router (the proxy sequence still advances
  /// globally, so merged partials reproduce the single-process results
  /// bitwise — see fed/merge.h).  partition_count == 1 is the ordinary
  /// single-process engine.
  std::size_t partition_id = 0;
  std::size_t partition_count = 1;
  /// Keep each snapshot's merged pre-finalize tallies
  /// (LiveSnapshot::tallies) so fed/partial_io can serialize them.
  bool capture_tallies = false;
};

/// The live-ingest engine. Construction spawns the worker threads;
/// destruction stops and joins them.
class LiveEngine {
 public:
  /// `devices` is the DeviceDB snapshot used for wearable classification
  /// (copied; the engine keeps no reference to the caller's data).
  LiveEngine(const std::vector<trace::DeviceRecord>& devices,
             LiveOptions options);
  ~LiveEngine();

  LiveEngine(const LiveEngine&) = delete;
  LiveEngine& operator=(const LiveEngine&) = delete;

  /// Binds the pool that pushed proxy records' host ids index.  Feed
  /// thread, before the first proxy push; `hosts` must stay alive and
  /// unchanged while the engine runs.  Binding the bound pool again is a
  /// no-op; binding another one is an error.  FeedReplayer::replay and
  /// fed::replay_partition_feed bind their capture's pool.
  void bind_hosts(const trace::StringPool& hosts);

  /// Feeds one record: stages it for its shard, blocking when a full
  /// batch meets a full ring.  Returns false after stop().
  bool push(trace::ProxyRecord record);
  bool push(trace::MmeRecord record);

  /// Commits every staged record to its shard's ring now, so the workers
  /// see everything pushed so far.  Same threading contract as push().
  bool flush() { return router_.flush(); }

  /// Accounts a run of records owned by other partitions without routing
  /// them (IngestRouter::skip_unowned): a pre-filtered feed interleaves
  /// push() and skip_unowned() calls in feed order and ends up with the
  /// same router state as pushing everything through the filter.  Same
  /// threading contract as push().
  void skip_unowned(std::uint64_t proxy_records, std::uint64_t mme_records) {
    router_.skip_unowned(proxy_records, mme_records);
  }

  /// Takes a consistent snapshot covering every record pushed so far:
  /// broadcasts a barrier, blocks until all shards arrived, assembles.
  /// Must not be called after stop().
  [[nodiscard]] LiveSnapshot snapshot();

  /// Accumulates feed-side quarantine counters (records the feed dropped
  /// or repaired before push()).  Subsequent snapshots carry the running
  /// total.  Same threading contract as push(): feed thread only.
  void add_quarantine(const trace::QuarantineStats& delta) {
    quarantine_ += delta;
  }
  /// Running feed-side quarantine total.
  [[nodiscard]] const trace::QuarantineStats& quarantine() const noexcept {
    return quarantine_;
  }

  /// Graceful drain-and-shutdown: barriers the final epoch, closes the
  /// rings, joins the workers, assembles, and returns the final snapshot
  /// (covering every record ever pushed). Idempotent — later calls return
  /// the same snapshot.
  LiveSnapshot stop();

  [[nodiscard]] const LiveOptions& options() const noexcept { return opt_; }
  [[nodiscard]] std::size_t shards() const noexcept {
    return router_.shards();
  }
  /// Aggregated ring backpressure counters.
  [[nodiscard]] RingStats backpressure() const {
    return router_.total_stats();
  }
  /// Epochs issued so far (snapshots taken + final).
  [[nodiscard]] std::uint64_t epochs_issued() const noexcept {
    return next_epoch_;
  }
  /// Records offered to the router so far (owned + partition-filtered).
  [[nodiscard]] std::uint64_t feed_records() const noexcept {
    return router_.feed_records();
  }
  /// Records filtered because another partition owns their user.
  [[nodiscard]] std::uint64_t filtered_records() const noexcept {
    return router_.filtered_records();
  }

 private:
  /// Waits for every shard to arrive at the barrier, then assembles the
  /// shards' stats in place as the next epoch and adds the feed-side
  /// fields.
  [[nodiscard]] LiveSnapshot assemble_epoch();

  LiveOptions opt_;
  appdb::AppCatalog catalog_;
  core::DeviceClassifier devices_;
  core::AppSignatureTable signatures_;
  HostBinding hosts_;
  IngestRouter router_;
  ArrivalBarrier arrivals_;
  std::vector<std::unique_ptr<ShardWorker>> workers_;
  std::uint64_t next_epoch_ = 0;
  trace::QuarantineStats quarantine_;
  std::optional<LiveSnapshot> final_snapshot_;  ///< Set by stop().
};

}  // namespace wearscope::live
