// Streaming, partition-filtered bundle loader for federated ingest.
//
// A partition process of an N-way cover owns 1/N of the users, but the
// on-disk bundle interleaves everyone.  Materializing the whole
// TraceStore just to filter it at the router forfeits the memory win of
// partitioning: the full capture sits resident in every worker.
// load_partition_feed instead streams the v2 or v3 logs one CRC-checked
// block or row group at a time through trace::LogCursor (fed never parses
// trace bytes itself), keeps only the records par::shard_of assigns to
// this partition, and records everything else as run-length skip ops.
//
// The load is a fixed three-thread pipeline, with no knob:
//   * proxy.bin and mme.bin each get a decoder thread of its own.  It
//     reads, CRC-checks and decodes one unit at a time (LogCursor::
//     next_unit), merges the unit's strings into the cursor's pools,
//     checks the (time, user) order and tags every row owned or not;
//   * each decoder hands the rows to the caller in batches of four
//     units (every stamp and owner flag, plus the owned rows) through a
//     bounded, in-order live::RingBuffer four batches deep;
//   * the calling thread merges the two streams by timestamp and builds
//     the owned rows and the op script.
// Peak memory is O(owned records + handoff units per log), not O(feed).
// A decode or order error on a decoder thread travels down its handoff
// in log order and is rethrown on the caller as the util::ParseError
// naming the file.  However the caller leaves — return or exception —
// both handoffs are closed and both decoders joined before the call
// returns, so a decoder parked on a full handoff never outlives it.
//
// Equivalence contract: replay_partition_feed() drives a LiveEngine to a
// state bitwise identical to FeedReplayer over the full time-sorted
// store with router-side filtering.  Three pieces make that hold:
//   * the merge order is FeedReplayer's exactly — ascending timestamp,
//     MME before proxy on ties, each log already in (time, user) order.
//     The loader verifies that order as it streams; an unsorted bundle
//     is a hard error, never a silent reorder;
//   * a skip run advances the router's proxy sequence and feed counters
//     through IngestRouter::skip_unowned, which is arithmetically
//     identical to the same records being route()-filtered — owned
//     records carry the same global stream stamps either way;
//   * the ops replay in feed order, so pushes and skips interleave
//     exactly as the unfiltered feed would.
//
// The loader is strict (util::ParseError on any damage): a partition
// worker feeds a bundle that wearscope_live's sanitize/chaos front end
// has already fixed up; a damaged capture belongs in the lenient bundle
// reader, not here.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "live/engine.h"
#include "trace/records.h"
#include "trace/string_pool.h"

namespace wearscope::fed {

/// Feed-script op kinds packed into PartitionFeed::ops elements.
enum class FeedOp : std::uint32_t {
  kPushProxy = 0,  ///< Push the next `count` owned proxy records.
  kPushMme = 1,    ///< Push the next `count` owned MME records.
  kSkipProxy = 2,  ///< `count` proxy records owned by other partitions.
  kSkipMme = 3,    ///< `count` MME records owned by other partitions.
};

/// Low bits of one op hold the run length; the top two hold the kind.
inline constexpr std::uint32_t kFeedOpCountBits = 30;
inline constexpr std::uint32_t kFeedOpMaxRun = (1u << kFeedOpCountBits) - 1;

[[nodiscard]] constexpr FeedOp feed_op_kind(std::uint32_t op) noexcept {
  return static_cast<FeedOp>(op >> kFeedOpCountBits);
}
[[nodiscard]] constexpr std::uint32_t feed_op_count(std::uint32_t op) noexcept {
  return op & kFeedOpMaxRun;
}

/// One bundle reduced to what a single partition must feed its engine.
/// The `hosts`/`paths` pools (inherited) are the proxy cursor's: they hold
/// every string of the log, owned or not, and `proxy` ids index them.
struct PartitionFeed : trace::ProxyPools {
  std::uint32_t partition_id = 0;
  std::uint32_t partition_count = 1;
  std::vector<trace::ProxyRecord> proxy;  ///< Owned records, feed order.
  std::vector<trace::MmeRecord> mme;      ///< Owned records, feed order.
  /// Run-length feed script (see FeedOp): replaying the ops in order
  /// reconstructs the exact single-process interleaving of pushes and
  /// filtered records.
  std::vector<std::uint32_t> ops;
  std::vector<trace::DeviceRecord> devices;  ///< For the classifier.
  /// Full feed length (owned + skipped) — identical across every
  /// partition of one cover.
  std::uint64_t feed_records = 0;
};

/// Streams `dir`'s proxy.bin and mme.bin (v2 or v3 — v1 and CSV bundles
/// must go through the materializing path) and returns the partition's
/// filtered feed.  devices.bin loads whole (it is small and every
/// partition needs all of it).  Throws util::IoError on missing files and
/// util::ParseError on damage, a v1 log, or a log that is not (time,
/// user)-sorted.
[[nodiscard]] PartitionFeed load_partition_feed(
    const std::filesystem::path& dir, std::size_t partition_id,
    std::size_t partition_count);

/// Binds the feed's host pool to `engine` and replays the filtered feed
/// into it; the engine must be configured with the same
/// partition_id/partition_count (hard error otherwise).  After
/// this returns, engine.feed_records() == feed.feed_records and the
/// engine state matches a full-feed replay bitwise.
void replay_partition_feed(const PartitionFeed& feed,
                           live::LiveEngine& engine);

}  // namespace wearscope::fed
