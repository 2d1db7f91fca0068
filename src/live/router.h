// IngestRouter: the single entry point of the live engine's data plane.
//
// Partitions the incoming record stream across N shard rings by hashed
// UserId, so every user's records — and therefore all per-user state
// (the per-user slots: adoption flags, sessionizer, activity counters) —
// live on exactly one shard and never need cross-thread synchronization.
// This is the shard-by-user invariant the whole subsystem rests on; the
// merge paths (core::AdoptionTally, core::ActivityTally) check it.
//
// Events are staged per shard and committed to the shard's ring in
// batches of kEventBatch (one ring index store per batch, not per record).
// Every staged event is committed before a barrier and before close, so
// each shard still sees its events in feed order and every barrier sits at
// the same stream position it would without staging.
//
// Exactly one thread (the feed) may call route()/broadcast_barrier()/
// flush()/close(): each ring is single-producer.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "live/event.h"
#include "live/ring_buffer.h"
#include "par/shard.h"

namespace wearscope::live {

/// Stable user -> shard assignment (split-mix finalizer; identical on every
/// platform and for every run, so snapshots are reproducible).  Shared with
/// fed's partition cover (par::shard_of), so live shards and fed
/// partitions split users by one rule.
[[nodiscard]] constexpr std::size_t shard_of(trace::UserId user,
                                             std::size_t shards) noexcept {
  return par::shard_of(user, shards);
}

/// Owns the shard rings and routes events into them.
class IngestRouter {
 public:
  /// `shards` >= 1 worker partitions, each with a ring of `ring_capacity`
  /// events.
  IngestRouter(std::size_t shards, std::size_t ring_capacity);

  /// Restricts this router to one partition of a multi-process cover:
  /// records whose shard_of(user, partition_count) differs from
  /// partition_id are filtered (counted, never rung).  The proxy sequence
  /// still advances for filtered records, so the stamps owned records
  /// carry are their *global* stream positions — that is what makes the
  /// federated ActivityTally merge replay the single-process user order
  /// bitwise (core/streaming_activity.h).  Feed thread only, before any
  /// route() call.
  void set_partition(std::size_t partition_id, std::size_t partition_count);

  /// Stages one record for its user's shard; a full stage is committed to
  /// the shard's ring, blocking on backpressure.  Returns false when the
  /// rings are already closed (or closed during that commit).  Proxy
  /// records are stamped with their global stream position at staging
  /// (see StampedProxy).  Records outside the owned partition are filtered
  /// and report true.
  bool route(trace::ProxyRecord record);
  bool route(trace::MmeRecord record);

  /// Accounts a run of records owned by other partitions without touching
  /// the rings: the proxy sequence and the feed/filter counters advance
  /// exactly as `proxy_records` + `mme_records` filtered route() calls
  /// would, so a pre-filtered feed (fed::load_partition_feed) reproduces
  /// the stamps owned records carry bitwise.  Feed thread only.
  void skip_unowned(std::uint64_t proxy_records, std::uint64_t mme_records);

  /// Commits every shard's staged events, then a barrier, into every ring
  /// (same stream position on each shard).  Returns false when the rings
  /// are already closed.
  bool broadcast_barrier();

  /// Commits every shard's staged events now, blocking on backpressure.
  /// Returns false when a ring refused some of them (closed).
  bool flush();

  /// Commits what is staged, then closes every ring: workers drain what is
  /// buffered, then stop.  Later route() calls go straight to the closed
  /// rings, which reject and count them.
  void close();

  [[nodiscard]] std::size_t shards() const noexcept { return rings_.size(); }

  /// Shard `i`'s ring (workers consume from it).
  [[nodiscard]] RingBuffer<LiveEvent>& ring(std::size_t i) {
    return *rings_[i];
  }

  /// Aggregated backpressure counters over all rings.
  [[nodiscard]] RingStats total_stats() const;

  /// Records offered to route() so far (owned + filtered) — the full
  /// feed's length, identical across every partition of one cover.
  [[nodiscard]] std::uint64_t feed_records() const noexcept {
    return feed_records_;
  }
  /// Records filtered because another partition owns their user.
  [[nodiscard]] std::uint64_t filtered_records() const noexcept {
    return filtered_records_;
  }

 private:
  /// Stages `event` for `shard`, committing the stage once it is full;
  /// after close() the event goes straight to the ring instead.
  bool stage(std::size_t shard, LiveEvent event);
  /// Commits shard `shard`'s stage with one push_n.
  bool commit(std::size_t shard);

  std::vector<std::unique_ptr<RingBuffer<LiveEvent>>> rings_;
  /// Per-shard events not yet committed, in feed order.  Feed-thread only.
  std::vector<std::vector<LiveEvent>> stages_;
  bool closed_ = false;               ///< Feed-thread only.
  std::uint64_t next_proxy_seq_ = 0;  ///< Feed-thread only, like route().
  std::size_t partition_id_ = 0;      ///< Feed-thread only.
  std::size_t partition_count_ = 1;   ///< 1 = single-process (no filter).
  std::uint64_t feed_records_ = 0;    ///< Feed-thread only.
  std::uint64_t filtered_records_ = 0;  ///< Feed-thread only.
};

}  // namespace wearscope::live
