#include "live/shard_worker.h"

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "util/sched_hook.h"

namespace wearscope::live {

void ArrivalBarrier::arrive() {
  util::sched::point(util::sched::Op::kBarrierDeposit, this);
  util::MutexLock lock(mutex_);
  if (++arrived_ == shards_) all_arrived_.notify_one();  // the feed thread
}

void ArrivalBarrier::wait() {
  util::sched::point(util::sched::Op::kBarrierWait, this);
  util::MutexLock lock(mutex_);
  all_arrived_.wait(mutex_, [&] { return arrived_ == shards_; });
  arrived_ = 0;
}

ShardWorker::ShardWorker(std::size_t index, RingBuffer<LiveEvent>& ring,
                         ShardStats stats, ArrivalBarrier& arrivals)
    : index_(index),
      ring_(&ring),
      stats_(std::move(stats)),
      arrivals_(&arrivals) {}

ShardWorker::~ShardWorker() { join(); }

void ShardWorker::start() {
  thread_ = std::thread([this] {
    // Under a deterministic scheduler this registers the worker and parks
    // it until first selected; without one both calls are no-ops.
    const std::string name = "shard-" + std::to_string(index_);
    util::sched::thread_started(name.c_str());
    run();
    util::sched::thread_finished();
  });
  // Spawn handshake: pins the instant the worker enters the scheduler's
  // candidate set to this program point (replay determinism).
  util::sched::await_thread_start(thread_.get_id());
}

void ShardWorker::join() {
  if (!thread_.joinable()) return;
  // Gate on the managed thread's exit first so the OS join below never
  // stalls the scheduler (the worker needs the token to finish draining).
  util::sched::join_gate(thread_.get_id());
  thread_.join();
}

void ShardWorker::run() {
  struct Visitor {
    ShardWorker* self = nullptr;
    void operator()(const StampedProxy& p) {
      self->stats_.on_proxy(p.record, p.seq);
    }
    void operator()(const trace::MmeRecord& r) { self->stats_.on_mme(r); }
    void operator()(const SnapshotBarrier&) {
      // The one write a snapshot needs stays on this thread; the feed
      // thread then reads the stats in place.
      self->stats_.sort_new_sizes();
      self->arrivals_->arrive();
    }
  };
  std::vector<LiveEvent> batch(kEventBatch);
  while (const std::size_t n = ring_->pop_n(batch.data(), batch.size())) {
    for (std::size_t i = 0; i < n; ++i) std::visit(Visitor{this}, batch[i]);
  }
}

}  // namespace wearscope::live
