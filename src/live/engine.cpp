#include "live/engine.h"

#include "core/context.h"
#include "util/error.h"

namespace wearscope::live {

LiveEngine::LiveEngine(const std::vector<trace::DeviceRecord>& devices,
                       LiveOptions options)
    : opt_(options),
      catalog_(options.long_tail_apps),
      devices_(devices),
      signatures_(catalog_, options.signature_coverage),
      router_(options.shards, options.ring_capacity),
      arrivals_(options.shards) {
  core::require_analysis_window(opt_.observation_days,
                                opt_.detailed_start_day);
  util::require(opt_.partition_count >= 1 &&
                    opt_.partition_id < opt_.partition_count,
                "LiveEngine: partition id out of range");
  router_.set_partition(opt_.partition_id, opt_.partition_count);
  workers_.reserve(router_.shards());
  for (std::size_t s = 0; s < router_.shards(); ++s) {
    workers_.push_back(std::make_unique<ShardWorker>(
        s, router_.ring(s),
        ShardStats(devices_, signatures_, hosts_, opt_.observation_days,
                   opt_.detailed_start_day, opt_.usage_gap_s,
                   opt_.sketch_aggregates),
        arrivals_));
  }
  for (const auto& worker : workers_) worker->start();
}

LiveEngine::~LiveEngine() {
  if (!final_snapshot_.has_value()) stop();
}

void LiveEngine::bind_hosts(const trace::StringPool& hosts) {
  util::require(hosts_.pool == nullptr || hosts_.pool == &hosts,
                "LiveEngine::bind_hosts: another host pool is already bound");
  hosts_.pool = &hosts;
}

bool LiveEngine::push(trace::ProxyRecord record) {
  return router_.route(record);
}

bool LiveEngine::push(trace::MmeRecord record) {
  return router_.route(record);
}

LiveSnapshot LiveEngine::assemble_epoch() {
  arrivals_.wait();
  std::vector<TallyView> parts;
  parts.reserve(workers_.size());
  for (const auto& worker : workers_) parts.push_back(worker->stats().view());
  LiveSnapshot snap =
      assemble(next_epoch_++, parts, signatures_, opt_.capture_tallies);
  snap.feed_records = router_.feed_records();
  snap.backpressure = router_.total_stats();
  snap.quarantine = quarantine_;
  return snap;
}

LiveSnapshot LiveEngine::snapshot() {
  util::require(!final_snapshot_.has_value(),
                "LiveEngine::snapshot: engine already stopped");
  router_.broadcast_barrier();
  return assemble_epoch();
}

LiveSnapshot LiveEngine::stop() {
  if (final_snapshot_.has_value()) return *final_snapshot_;
  router_.broadcast_barrier();
  router_.close();
  // Joined first, so the ring totals include the workers' last waits.
  for (const auto& worker : workers_) worker->join();
  final_snapshot_ = assemble_epoch();
  return *final_snapshot_;
}

}  // namespace wearscope::live
