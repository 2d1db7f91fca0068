// The unit of work flowing through the live-ingest engine: one vantage
// point record, or one control barrier injected by an epoch snapshot
// (LiveEngine::snapshot/stop).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <variant>

#include "trace/records.h"

namespace wearscope::live {

/// Control event: "mark your arrival, then continue".  The router
/// broadcasts one barrier to every shard at the same stream position, so
/// the union of the shard states at a barrier is a consistent prefix of
/// the input stream (shard rings are FIFO).  One epoch is in flight at a
/// time, so the barrier needs no epoch label.
struct SnapshotBarrier {};

/// A proxy record plus its position in the global proxy stream.  The router
/// (single feed thread) stamps `seq` so shards can reconstruct the exact
/// user iteration order the batch AnalysisContext uses (first appearance in
/// the proxy log) — the last piece needed for bitwise batch equivalence.
struct StampedProxy {
  std::uint64_t seq = 0;
  trace::ProxyRecord record;
};
static_assert(std::is_trivially_copyable_v<StampedProxy>);

/// One element of a shard's ingest ring.
using LiveEvent =
    std::variant<StampedProxy, trace::MmeRecord, SnapshotBarrier>;

/// Events the router stages per shard before one ring commit, and the most
/// a shard worker takes out of its ring at once.
inline constexpr std::size_t kEventBatch = 128;

}  // namespace wearscope::live
