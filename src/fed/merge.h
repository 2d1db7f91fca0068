// Federated snapshot merge: N user-disjoint partial snapshots -> the one
// LiveSnapshot a single process would have produced, bitwise.
//
// Why the merge is exact (the partition invariants):
//   * ownership — partition i of N holds exactly the users with
//     par::shard_of(user, N) == i, so the per-user maps of distinct
//     partials are disjoint and every set cardinality simply adds
//     (core::AdoptionTally, live::AppTally/SectorTally);
//   * global stamps — the partitioned router advances the proxy sequence
//     for *filtered* records too (live/router.h), so the merged
//     ActivityTally replays the single-process user-appearance order in
//     finalize() bit for bit;
//   * shared feed — every partition replays the same sanitized feed, so
//     the feed-side quarantine accounting is identical across partials
//     (validated; one copy rides into the merged snapshot);
//   * canonical order — partials are assembled in ascending partition id,
//     in place, through the same live::assemble the engine runs, so the
//     result cannot depend on load order or thread count.
// The only non-exact state is the sketch estimates (HLL/t-digest/
// count-min): merges are lossless as algebra but the t-digest centroid
// layout depends on merge order, so sketch-mode figures carry the
// documented error bounds instead of a bitwise gate (docs/DESIGN.md).
//
// Cover validation is strict by design: a mismatched partition_count, a
// duplicate or missing partition id, mismatched windows/epochs/feeds, a
// foreign user inside a partial, or diverging quarantine accounting are
// hard errors (util::ConfigError) — a silent partial cover would
// undercount every figure.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "fed/partial_io.h"
#include "live/engine.h"

namespace wearscope::fed {

/// One loaded partial plus where it came from (for error messages).
struct LoadedPartial {
  PartialSnapshot partial;
  std::filesystem::path path;
};

/// Loads every path as a partial snapshot, one strict decode task per
/// file on a par::TaskPool of `threads` executors (1 = inline).  Throws
/// util::ParseError/util::IoError naming the offending file.
[[nodiscard]] std::vector<LoadedPartial> load_partials(
    const std::vector<std::filesystem::path>& paths, std::size_t threads);

/// The federated snapshot and the cover it was assembled from.
struct MergeResult {
  /// Finalized snapshot, identical to the single-process engine's (and
  /// therefore serve-compatible: publish it into a SnapshotStore as-is).
  live::LiveSnapshot snapshot;
  /// The validated cover's shared metadata (partition_id meaningless).
  PartitionHeader header;
  /// Engine options reconstructed from the header — what a verifier
  /// needs to rebuild batch references.
  live::LiveOptions options;
  std::uint64_t merged_partitions = 0;
};

/// Validates the partition cover of `parts` (complete, disjoint, same
/// feed/window/epoch/quarantine) and merges them in canonical partition
/// order through live::assemble.  Throws util::ConfigError on any cover
/// violation.
[[nodiscard]] MergeResult merge_partials(std::vector<LoadedPartial> parts);

}  // namespace wearscope::fed
