// In-memory trace container shared by generator, serializers and analyses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "trace/records.h"
#include "trace/string_pool.h"

namespace wearscope::trace {

/// Aggregate counters over a TraceStore (used in reports and sanity tests).
struct TraceSummary {
  std::size_t proxy_records = 0;
  std::size_t mme_records = 0;
  std::size_t devices = 0;
  std::size_t sectors = 0;
  std::size_t distinct_proxy_users = 0;
  std::size_t distinct_mme_users = 0;
  std::uint64_t total_bytes = 0;
  util::SimTime first_timestamp = 0;
  util::SimTime last_timestamp = 0;
};

/// Holds one complete capture: the three vantage-point logs plus the sector
/// database, and (inherited from ProxyPools) the `hosts` and `paths` pools
/// the proxy rows' ids index — so a store can be handed to any reader or
/// writer that interns or resolves those ids.  Value-semantic; the
/// analyses take it by const reference.
class TraceStore : public ProxyPools {
 public:
  Rows<ProxyRecord> proxy;           ///< Transparent-proxy transaction log.
  Rows<MmeRecord> mme;               ///< MME mobility log.
  std::vector<DeviceRecord> devices; ///< DeviceDB snapshot.
  std::vector<SectorInfo> sectors;   ///< Antenna-sector positions.

  /// Sorts both event logs into canonical (time, user) order, stably, then
  /// makes the pools canonical over the sorted proxy rows (first-appearance
  /// order, no unused entry; see trace/string_pool.h).  The fast path is
  /// is_sorted(): a store already canonical (every bundle gen writes) is
  /// left untouched after that one parallel check.  The rows are the only
  /// in-memory form of the logs: the analyses name a record by its row
  /// index, so sort before building an AnalysisContext.  May start
  /// threads (see is_sorted()).
  void sort_by_time();

  /// True when both event logs are in canonical order and the pools are
  /// canonical over the proxy rows — what sort_by_time() establishes.
  /// One stream over the rows, cut into row slices that run on up to
  /// std::thread::hardware_concurrency() threads (one slice, inline, for
  /// a small store); the answer does not depend on the slice count.
  /// Throws std::system_error when a thread cannot be started.
  [[nodiscard]] bool is_sorted() const;

  /// Computes aggregate counters (distinct users, volumes, time span).
  [[nodiscard]] TraceSummary summarize() const;

  /// DeviceDB lookup by TAC; nullopt for unknown TACs.
  [[nodiscard]] std::optional<DeviceRecord> find_device(Tac tac) const;

  /// Sector lookup by id; nullopt for unknown sectors.
  [[nodiscard]] std::optional<SectorInfo> find_sector(SectorId id) const;

  /// Builds (or rebuilds) the lookup indexes after mutating devices/sectors.
  void rebuild_indexes() const;

 private:
  mutable std::unordered_map<Tac, std::size_t> device_index_;
  mutable std::unordered_map<SectorId, std::size_t> sector_index_;
  mutable bool indexes_built_ = false;
};

/// is_sorted() over `slices` row slices of each event log (fewer when a
/// log has fewer rows), run on `slices` threads.  Each slice checks its
/// rows' order, starting from the row before it, and notes where it first
/// uses each pool id; the merge checks the first uses in O(slices x pool
/// size).  The answer is is_sorted()'s for every `slices` >= 1.
[[nodiscard]] bool is_sorted_in_slices(const TraceStore& store,
                                       std::size_t slices);

}  // namespace wearscope::trace
