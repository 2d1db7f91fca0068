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
// The load runs each log on decode lanes: L threads per log, where L
// comes from std::thread::hardware_concurrency() (detail::
// default_feed_lanes; there is no option).  Lane k of a log
//   * reads, CRC-checks and decodes the log's units k, k + L, k + 2L, ...
//     (a strided trace::LogCursor on a stream of its own, which seeks past
//     the other lanes' payloads), checks the (time, user) order inside each
//     unit and tags every row owned or not;
//   * hands each unit over (every stamp, the runs of owned and unowned
//     rows, the owned rows and the strings its pools gained) through an
//     in-order live::RingBuffer of its own, filling unit buffers that are
//     sized once from the unit headers and reused.
// The calling thread pops the lanes round-robin, so it sees each log in
// unit order.  It checks the order across each unit boundary, merges each
// unit's new strings into the feed pools (which therefore list every
// string in first-use order over the whole log, whatever L is), appends
// the owned rows, and merges the two logs' stamps into the op script a
// run at a time.  One lane per log is the same code with a stride of one.
// A log's handoffs hold at most 16 units together, however many lanes
// share them (plus the unit each lane is filling), so peak memory is the
// owned records and the op script plus that window, never a whole log.
// Errors surface in log order: a lane that hits damage hands over the
// rows before it and then the util::ParseError naming the file and unit,
// and the merge reaches it only after every earlier unit, so a damaged
// unit on one lane is never reported before an earlier one on another.
// However the caller leaves — return or exception — every handoff is
// closed and every lane joined before the call returns, so a lane parked
// on a full handoff never outlives it.
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

namespace detail {

/// Decode lanes per log: lane k of L reads, CRC-checks and decodes the
/// log's units k, k + L, k + 2L, ... on a thread of its own.
struct FeedLanes {
  std::size_t proxy = 1;
  std::size_t mme = 1;
};

/// The lanes load_partition_feed uses, from the machine's
/// std::thread::hardware_concurrency(): the MME log is a fraction of the
/// proxy log's size and gets one lane; the proxy log gets a lane per
/// core beyond the merge's, up to the point where the merge is the floor.
[[nodiscard]] FeedLanes default_feed_lanes();

/// load_partition_feed with explicit lane counts (each >= 1).  The feed is
/// identical for every count.
[[nodiscard]] PartitionFeed load_partition_feed(
    const std::filesystem::path& dir, std::size_t partition_id,
    std::size_t partition_count, FeedLanes lanes);

}  // namespace detail

/// Binds the feed's host pool to `engine` and replays the filtered feed
/// into it; the engine must be configured with the same
/// partition_id/partition_count (hard error otherwise).  After
/// this returns, engine.feed_records() == feed.feed_records and the
/// engine state matches a full-feed replay bitwise.
void replay_partition_feed(const PartitionFeed& feed,
                           live::LiveEngine& engine);

}  // namespace wearscope::fed
