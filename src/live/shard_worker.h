// One worker thread per shard: drains its ring, feeds its ShardStats, and
// marks its arrival at every barrier so the feed thread can read the
// stats in place.
#pragma once

#include <cstdint>
#include <thread>

#include "live/event.h"
#include "live/ring_buffer.h"
#include "live/shard_stats.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace wearscope::live {

/// Counts the shards that reached the current barrier.  arrive() is
/// called from worker threads, wait() from the feed thread; one epoch is
/// in flight at a time, because the feed issues the next barrier only
/// after wait() returned.
class ArrivalBarrier {
 public:
  explicit ArrivalBarrier(std::size_t shards) : shards_(shards) {}

  /// One shard popped the barrier and is done writing its stats until it
  /// pops its next event.
  void arrive() WS_EXCLUDES(mutex_);

  /// Blocks until every shard arrived, then rearms.
  void wait() WS_EXCLUDES(mutex_);

 private:
  std::size_t shards_ = 0;
  util::Mutex mutex_;
  util::CondVar all_arrived_;
  std::size_t arrived_ WS_GUARDED_BY(mutex_) = 0;
};

/// Owns the consumer thread of one shard ring.
class ShardWorker {
 public:
  /// `ring`, `arrivals` and the references inside `stats` must outlive
  /// the worker. The worker does not start until start() is called.
  ShardWorker(std::size_t index, RingBuffer<LiveEvent>& ring,
              ShardStats stats, ArrivalBarrier& arrivals);
  ~ShardWorker();

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Spawns the consumer thread.
  void start();

  /// Joins the thread; returns once the ring is drained and closed.
  void join();

  /// The shard's stats.  Another thread may read them only between this
  /// worker's arrival at a barrier and the next event it pops.
  [[nodiscard]] const ShardStats& stats() const noexcept { return stats_; }

 private:
  void run();

  std::size_t index_ = 0;
  RingBuffer<LiveEvent>* ring_ = nullptr;
  ShardStats stats_;
  ArrivalBarrier* arrivals_ = nullptr;
  std::thread thread_;
};

}  // namespace wearscope::live
