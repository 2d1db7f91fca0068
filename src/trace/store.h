// In-memory trace container shared by generator, serializers and analyses.
#pragma once

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
  std::vector<ProxyRecord> proxy;    ///< Transparent-proxy transaction log.
  std::vector<MmeRecord> mme;        ///< MME mobility log.
  std::vector<DeviceRecord> devices; ///< DeviceDB snapshot.
  std::vector<SectorInfo> sectors;   ///< Antenna-sector positions.

  /// Sorts both event logs into canonical (time, user) order, stably, then
  /// makes the pools canonical over the sorted proxy rows (first-appearance
  /// order, no unused entry; see trace/string_pool.h).  A log or pool
  /// already canonical is left untouched after one linear check.  The
  /// rows are the only in-memory form of the logs: the analyses name a
  /// record by its row index, so sort before building an AnalysisContext.
  void sort_by_time();

  /// True when both event logs are in canonical order and the pools are
  /// canonical over the proxy rows — what sort_by_time() establishes.
  [[nodiscard]] bool is_sorted() const noexcept;

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

}  // namespace wearscope::trace
