// FeedReplayer: turns an on-disk capture back into a live feed.
//
// Replays a TraceStore's proxy and MME logs as one merged, time-ordered
// event stream into a LiveEngine — at real time (speedup 1), at a
// configurable multiple, or as fast as the engine accepts (speedup <= 0,
// the throughput-benchmark mode).  Optionally requests an engine snapshot
// every `snapshot_every_s` seconds of *stream* time, which makes periodic
// snapshots deterministic: epoch boundaries depend only on record
// timestamps, never on wall-clock scheduling.  A paced replay (speedup > 0)
// flushes the engine's staged records before each sleep, so no record that
// is already due waits on the feed thread for its batch to fill; the
// full-speed replay never flushes early.
//
// Transient faults: a real feed tap occasionally fails a read (stalled
// middlebox, flapping spool mount).  The replayer models that with a
// pluggable fault hook and bounded exponential-backoff retries: a record
// whose reads keep failing past `RetryPolicy::max_attempts` is quarantined
// (counted, skipped) instead of wedging the feed.  The hook is a pure
// function of the feed sequence number, so a given fault schedule drops
// exactly the same records on every run and for every shard count — the
// property the chaos differential harness (src/chaos) checks.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "live/engine.h"
#include "trace/quarantine.h"
#include "trace/store.h"

namespace wearscope::live {

/// Bounded retry with exponential backoff for transient feed-read faults.
struct RetryPolicy {
  /// Total read attempts per record before it is quarantined.
  std::uint32_t max_attempts = 4;
  /// Wall-clock pause before the first retry (0 disables sleeping).
  std::chrono::microseconds initial_backoff{50};
  /// Backoff growth per retry (initial, initial*m, initial*m^2, ...).
  double backoff_multiplier = 2.0;
  /// Upper bound on a single backoff pause.
  std::chrono::microseconds max_backoff{5000};
};

/// Replay configuration.
struct ReplayOptions {
  /// Stream-time / wall-time ratio; <= 0 replays as fast as possible.
  double speedup = 0.0;
  /// Request a snapshot whenever stream time crosses a multiple of this
  /// many seconds since the first record; 0 disables periodic snapshots.
  util::SimTime snapshot_every_s = 0;
  /// Retry policy for transient read faults.
  RetryPolicy retry;
  /// Transient-fault hook: how many times the read of feed record `seq`
  /// (merge order, counting both logs) fails before succeeding; 0 = clean.
  /// Unset = no faults.  Must be deterministic in `seq` (chaos::FaultPlan
  /// provides seeded schedules).
  std::function<std::uint32_t(std::uint64_t seq)> read_faults;
  /// Snapshot publication hook: when set, each periodic snapshot is handed
  /// here (from the feed thread, in epoch order) instead of being
  /// accumulated into ReplayReport::snapshots — the always-on serving
  /// layer (wearscope::serve::SnapshotStore::publish) hangs off this, so a
  /// long replay retains a bounded window instead of every epoch.
  std::function<void(LiveSnapshot snapshot)> on_snapshot;
};

/// What one replay() call did.
struct ReplayReport {
  std::uint64_t records_pushed = 0;
  double wall_seconds = 0.0;  ///< Push-loop wall time (excludes stop()).
  /// The periodic snapshots, in epoch order (empty when disabled or when
  /// ReplayOptions::on_snapshot consumed them).
  std::vector<LiveSnapshot> snapshots;
  /// Runtime quarantine: recovered retries and records dropped after the
  /// retry budget (also accumulated into the engine's snapshots).
  trace::QuarantineStats quarantine;
};

/// One event of a capture's feed: exactly one of `mme` / `proxy` is set.
struct FeedEvent {
  const trace::MmeRecord* mme = nullptr;
  const trace::ProxyRecord* proxy = nullptr;
  std::uint64_t seq = 0;        ///< Position in the feed, both logs.
  std::uint64_t proxy_seq = 0;  ///< Position in the proxy log (proxy only),
                                ///< the seq the router stamps.
};

/// Calls `visit(event)` for the first `limit` events of `store` in feed
/// order — ascending timestamp, MME before proxy on ties (a device
/// registers with the network before its traffic shows up at the proxy) —
/// and returns how many it visited.  Both logs must be time-sorted.  The
/// replayer, the sequential reference and the chaos and sched harnesses
/// all walk a store through here; fed/feed_filter.cpp applies the same
/// rule to whole units of the on-disk logs.
template <typename Visit>
std::uint64_t walk_feed(
    const trace::TraceStore& store, Visit&& visit,
    std::uint64_t limit = std::numeric_limits<std::uint64_t>::max()) {
  const auto& proxy = store.proxy;
  const auto& mme = store.mme;
  std::size_t pi = 0;
  std::size_t mi = 0;
  std::uint64_t seq = 0;
  for (; seq < limit && (pi < proxy.size() || mi < mme.size()); ++seq) {
    FeedEvent event;
    event.seq = seq;
    if (mi < mme.size() &&
        (pi >= proxy.size() || mme[mi].timestamp <= proxy[pi].timestamp)) {
      event.mme = &mme[mi++];
    } else {
      event.proxy_seq = pi;
      event.proxy = &proxy[pi++];
    }
    visit(event);
  }
  return seq;
}

/// Replays one capture. The store must stay alive during replay() and must
/// be time-sorted (trace::TraceStore::sort_by_time).
class FeedReplayer {
 public:
  FeedReplayer(const trace::TraceStore& store, ReplayOptions options);

  /// Binds the store's host pool to `engine`, then pushes every proxy/MME
  /// record into it in timestamp order (ties: MME before proxy —
  /// registration precedes traffic).  Does NOT call engine.stop(); the
  /// caller decides when to drain.
  ReplayReport replay(LiveEngine& engine) const;

 private:
  const trace::TraceStore* store_ = nullptr;
  ReplayOptions opt_;
};

}  // namespace wearscope::live
