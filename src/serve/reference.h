// Batch references for the serving layer's equivalence gates.
//
// Two independent references pin down what a serve answer must equal:
//
//  * reference_snapshot() — a sequential, thread-free replay of the same
//    ShardStats/live::assemble machinery the concurrent engine runs (one
//    shard, fed in feed order by live::walk_feed on the calling thread).
//    Any divergence from a LiveEngine snapshot isolates a concurrency bug,
//    because every other ingredient is shared code.
//
//  * core::Pipeline (what wearscope_analyze runs) — the batch ground
//    truth for the figures both sides compute (adoption, activity,
//    quarantine).  verify_responses() renders serve answers from a served
//    snapshot AND from these references through the same byte-exact
//    formatters, and compares strings.
//
// prefix_store() cuts the capture at an epoch boundary (the first
// `records` events in feed order), which is exactly the stream
// prefix a barrier snapshot covers — that is what makes per-epoch
// equivalence testable against the batch pipeline.
//
// reference_snapshot() is THE sequential-reference entry point: both
// `wearscope_serve --verify` (via verify_responses) and the deterministic
// interleaving harness (src/sched) compare concurrent snapshots against
// it, so there is exactly one definition of "what a barrier cut at N
// records must contain".  Its `records` parameter applies the same
// feed-order prefix cut prefix_store() materializes, without copying the
// capture.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "live/engine.h"
#include "trace/store.h"

namespace wearscope::serve {

/// "No prefix cut": reference_snapshot covers the whole capture.
inline constexpr std::uint64_t kAllRecords =
    std::numeric_limits<std::uint64_t>::max();

/// The capture prefix a barrier at `records` covers: the first `records`
/// events of `store` in feed order (live::walk_feed), plus the full
/// device/sector databases.  `store` must be time-sorted.
[[nodiscard]] trace::TraceStore prefix_store(const trace::TraceStore& store,
                                             std::uint64_t records);

/// Sequential reference snapshot over the first `records` events of
/// `store` in feed order (kAllRecords = the whole capture): one
/// ShardStats instance fed on the calling thread, assembled through the
/// same live::assemble the engine uses.  `epoch` labels the
/// result; `quarantine` rides into the snapshot like
/// LiveEngine::add_quarantine.  This is the single sequential reference
/// the serving verify gate and the sched harness both compare against.
[[nodiscard]] live::LiveSnapshot reference_snapshot(
    const trace::TraceStore& store, const live::LiveOptions& options,
    std::uint64_t epoch = 0, const trace::QuarantineStats& quarantine = {},
    std::uint64_t records = kAllRecords);

/// One mismatch found by verify_responses().
struct VerifyMismatch {
  std::string query;  ///< The protocol line that diverged.
  std::string serve;  ///< The serving layer's response.
  std::string batch;  ///< The batch reference's response.
};

/// Renders the canonical query set (adoption, activity, quarantine,
/// top-apps K, sectors K) against `served` and against batch references
/// over `store`, byte-comparing each pair:
///   adoption/activity  vs core::Pipeline (wearscope_analyze),
///   top-apps/sectors/class-mix  vs reference_snapshot(),
///   quarantine  vs `expected_quarantine`, the feed-side accounting the
///   caller tracked independently of the engine's accumulation.
/// Returns every mismatch (empty = bitwise identical).
[[nodiscard]] std::vector<VerifyMismatch> verify_responses(
    const live::LiveSnapshot& served, const trace::TraceStore& store,
    const live::LiveOptions& options,
    const trace::QuarantineStats& expected_quarantine,
    std::size_t top_k = 10);

}  // namespace wearscope::serve
