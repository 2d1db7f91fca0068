#include "live/shard_worker.h"

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "util/sched_hook.h"

namespace wearscope::live {

ShardWorker::ShardWorker(std::size_t index, RingBuffer<LiveEvent>& ring,
                         ShardStats stats, SnapshotCoordinator& coordinator)
    : index_(index),
      ring_(&ring),
      stats_(std::move(stats)),
      coordinator_(&coordinator) {}

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
    void operator()(const SnapshotBarrier& b) {
      self->coordinator_->deposit(b.epoch,
                                  self->stats_.snapshot(self->index_));
    }
  };
  std::vector<LiveEvent> batch(kEventBatch);
  while (const std::size_t n = ring_->pop_n(batch.data(), batch.size())) {
    for (std::size_t i = 0; i < n; ++i) std::visit(Visitor{this}, batch[i]);
  }
}

}  // namespace wearscope::live
