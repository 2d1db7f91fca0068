#include "live/router.h"

#include "util/error.h"

namespace wearscope::live {

IngestRouter::IngestRouter(std::size_t shards, std::size_t ring_capacity) {
  util::require(shards >= 1, "IngestRouter: need at least one shard");
  rings_.reserve(shards);
  stages_.resize(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    rings_.push_back(std::make_unique<RingBuffer<LiveEvent>>(ring_capacity));
    stages_[i].reserve(kEventBatch);
  }
}

void IngestRouter::set_partition(std::size_t partition_id,
                                 std::size_t partition_count) {
  util::require(partition_count >= 1 && partition_id < partition_count,
                "IngestRouter: partition id out of range");
  util::require(next_proxy_seq_ == 0 && feed_records_ == 0,
                "IngestRouter: set_partition after records were routed");
  partition_id_ = partition_id;
  partition_count_ = partition_count;
}

bool IngestRouter::route(trace::ProxyRecord record) {
  ++feed_records_;
  if (partition_count_ > 1 &&
      shard_of(record.user_id, partition_count_) != partition_id_) {
    // Not ours — but the stamp space is the *global* proxy stream, so the
    // sequence advances exactly as it would in a single process.
    ++next_proxy_seq_;
    ++filtered_records_;
    return true;
  }
  const std::size_t shard = shard_of(record.user_id, rings_.size());
  if (!stage(shard, LiveEvent(StampedProxy{next_proxy_seq_, record}))) {
    return false;
  }
  ++next_proxy_seq_;
  return true;
}

bool IngestRouter::route(trace::MmeRecord record) {
  ++feed_records_;
  if (partition_count_ > 1 &&
      shard_of(record.user_id, partition_count_) != partition_id_) {
    ++filtered_records_;
    return true;
  }
  const std::size_t shard = shard_of(record.user_id, rings_.size());
  return stage(shard, LiveEvent(record));
}

void IngestRouter::skip_unowned(std::uint64_t proxy_records,
                                std::uint64_t mme_records) {
  next_proxy_seq_ += proxy_records;
  feed_records_ += proxy_records + mme_records;
  filtered_records_ += proxy_records + mme_records;
}

bool IngestRouter::stage(std::size_t shard, LiveEvent event) {
  if (closed_) return rings_[shard]->push(event);
  std::vector<LiveEvent>& staged = stages_[shard];
  staged.push_back(event);
  return staged.size() < kEventBatch || commit(shard);
}

bool IngestRouter::commit(std::size_t shard) {
  std::vector<LiveEvent>& staged = stages_[shard];
  if (staged.empty()) return true;
  const bool all = rings_[shard]->push_n(staged.data(), staged.size()) ==
                   staged.size();
  staged.clear();
  return all;
}

bool IngestRouter::broadcast_barrier() {
  bool ok = true;
  for (std::size_t shard = 0; shard < rings_.size(); ++shard) {
    ok = stage(shard, LiveEvent(SnapshotBarrier{})) && commit(shard) &&
         ok;
  }
  return ok;
}

bool IngestRouter::flush() {
  bool ok = true;
  for (std::size_t shard = 0; shard < rings_.size(); ++shard) {
    ok = commit(shard) && ok;
  }
  return ok;
}

void IngestRouter::close() {
  flush();
  closed_ = true;
  for (const auto& ring : rings_) ring->close();
}

RingStats IngestRouter::total_stats() const {
  RingStats total;
  for (const auto& ring : rings_) total += ring->stats();
  return total;
}

}  // namespace wearscope::live
