#include "fed/merge.h"

#include <algorithm>
#include <functional>
#include <string>
#include <utility>

#include "appdb/app_catalog.h"
#include "par/shard.h"
#include "par/task_pool.h"
#include "util/error.h"

namespace wearscope::fed {

namespace {

[[noreturn]] void cover_error(const std::filesystem::path& path,
                              const std::string& what) {
  throw util::ConfigError("partition cover: " + what + " (" + path.string() +
                          ")");
}

/// Hard-errors unless every user a partial holds hashes into its owned
/// partition — the disjointness half of the cover contract.
void check_ownership(const LoadedPartial& part) {
  const PartitionHeader& h = part.partial.header;
  const auto owned = [&h](trace::UserId user) {
    return par::shard_of(user, h.partition_count) == h.partition_id;
  };
  // Membership checks are order-free (no emission follows iteration).
  // wearscope-lint: allow(unordered-flow)
  for (const auto& [user, seq] : part.partial.tallies.activity.first_seen) {
    if (!owned(user)) {
      cover_error(part.path,
                  "partition " + std::to_string(h.partition_id) +
                      " holds user " + std::to_string(user) +
                      " owned by partition " +
                      std::to_string(par::shard_of(user, h.partition_count)));
    }
  }
  // wearscope-lint: allow(unordered-flow)
  for (const auto& [user, activity] : part.partial.tallies.activity.users) {
    if (!owned(user)) {
      cover_error(part.path,
                  "partition " + std::to_string(h.partition_id) +
                      " holds activity for foreign user " +
                      std::to_string(user));
    }
  }
}

}  // namespace

std::vector<LoadedPartial> load_partials(
    const std::vector<std::filesystem::path>& paths, std::size_t threads) {
  std::vector<LoadedPartial> out(paths.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    // One strict decode per file; tasks write disjoint slots, so the
    // result is identical for every pool size.
    tasks.push_back([i, &out, &paths] {
      try {
        out[i].partial = read_partial_file(paths[i]);
      } catch (const util::ParseError& e) {
        throw util::ParseError(paths[i].string() + ": " + e.what());
      } catch (const util::IoError& e) {
        throw util::IoError(paths[i].string() + ": " + e.what());
      }
      out[i].path = paths[i];
    });
  }
  par::TaskPool pool(threads == 0 ? 1 : threads);
  pool.run(std::move(tasks));
  return out;
}

MergeResult merge_partials(std::vector<LoadedPartial> parts) {
  util::require(!parts.empty(), "partition cover: no partials to merge");

  // Canonical partition order: the merge result must be a function of the
  // cover alone, never of argument or load order.
  std::sort(parts.begin(), parts.end(),
            [](const LoadedPartial& a, const LoadedPartial& b) {
              return a.partial.header.partition_id <
                     b.partial.header.partition_id;
            });

  const PartitionHeader& first = parts.front().partial.header;
  const std::uint32_t count = first.partition_count;
  if (parts.size() != count) {
    throw util::ConfigError(
        "partition cover: expected " + std::to_string(count) +
        " partials (partition_count), got " + std::to_string(parts.size()));
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const PartitionHeader& h = parts[i].partial.header;
    const std::filesystem::path& path = parts[i].path;
    if (h.partition_count != count) {
      cover_error(path, "mismatched partition_count " +
                            std::to_string(h.partition_count) + " != " +
                            std::to_string(count));
    }
    if (h.partition_id != i) {
      const bool duplicate =
          i > 0 && h.partition_id == parts[i - 1].partial.header.partition_id;
      cover_error(path, duplicate ? "duplicate partition id " +
                                        std::to_string(h.partition_id)
                                  : "missing partition id " +
                                        std::to_string(i));
    }
    if (h.epoch != first.epoch) {
      cover_error(path, "mismatched epoch");
    }
    if (h.feed_records != first.feed_records) {
      cover_error(path, "mismatched feed_records (different feeds?)");
    }
    if (h.observation_days != first.observation_days ||
        h.detailed_start_day != first.detailed_start_day ||
        h.usage_gap_s != first.usage_gap_s ||
        h.long_tail_apps != first.long_tail_apps ||
        h.signature_coverage != first.signature_coverage ||
        h.sketch_enabled != first.sketch_enabled) {
      cover_error(path, "mismatched engine options");
    }
    if (parts[i].partial.feed_quarantine !=
        parts.front().partial.feed_quarantine) {
      cover_error(path, "diverging feed-side quarantine accounting");
    }
    check_ownership(parts[i]);
  }

  // Canonical order, read in place: assemble() combines the decoded
  // tallies through the exact path the engine runs.
  std::vector<live::TallyView> views;
  views.reserve(parts.size());
  std::uint64_t owned = 0;
  for (const LoadedPartial& part : parts) {
    const live::LiveSnapshot::TallySet& tallies = part.partial.tallies;
    views.push_back(live::TallyView{part.partial.header.records,
                                    &tallies.adoption, &tallies.activity,
                                    &tallies.apps, &tallies.sectors,
                                    &tallies.sketch});
    owned += part.partial.header.records;
  }
  // Completeness: the owned ranges must tile the feed exactly.  Together
  // with the per-user ownership check above this rejects overlapping and
  // gapped covers even when their per-partition counts look plausible.
  if (owned != first.feed_records) {
    throw util::ConfigError(
        "partition cover: owned records sum to " + std::to_string(owned) +
        " but the feed offered " + std::to_string(first.feed_records) +
        " (incomplete or overlapping)");
  }

  MergeResult result;
  result.merged_partitions = count;
  result.header = first;
  result.options.shards = 1;
  result.options.observation_days = first.observation_days;
  result.options.detailed_start_day = first.detailed_start_day;
  result.options.usage_gap_s = first.usage_gap_s;
  result.options.long_tail_apps = first.long_tail_apps;
  result.options.signature_coverage = first.signature_coverage;
  result.options.sketch_aggregates = first.sketch_enabled != 0;

  const appdb::AppCatalog catalog(result.options.long_tail_apps);
  const core::AppSignatureTable signatures(catalog,
                                           result.options.signature_coverage);
  result.snapshot = live::assemble(first.epoch, views, signatures);
  result.snapshot.feed_records = first.feed_records;
  result.snapshot.quarantine = parts.front().partial.feed_quarantine;
  return result;
}

}  // namespace wearscope::fed
