// In-memory struct-of-arrays views over the two event logs.
//
// The analysis kernels (core/analysis_*) spend their time streaming a few
// fields of millions of ProxyRecord/MmeRecord rows; the row layout drags
// every unused field through the cache per record.  These views transpose
// the logs into dense per-field vectors once, so a kernel that wants
// timestamps and byte counts touches exactly those bytes.  Hosts and TACs
// are dictionary-coded in first-appearance order — the same order the v3
// on-disk dictionaries use (trace/columnar_io) — which lets per-record
// string/hash work become a per-dictionary-entry precomputation (e.g. one
// wearable flag per TAC entry instead of one DeviceDB hash lookup per
// record).
//
// The host column and dictionary are a plain copy of the rows' host ids
// and the store's host pool: once TraceStore::sort_by_time() has made the
// pool canonical (trace/string_pool.h), that is exactly first-appearance
// order, for every input format, so v1/v2/v3/CSV inputs produce identical
// columns and therefore identical reports.  No kernel reads URL paths, so
// the path ids stay row-side.  Row vectors remain the mutation interface;
// call TraceStore::build_columns() after the store reaches its final
// order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace/records.h"
#include "trace/string_pool.h"

namespace wearscope::par {
class TaskPool;
}  // namespace wearscope::par

namespace wearscope::trace {

/// Columnar transpose of a ProxyRecord vector.  Index i of every column
/// is row i of the source vector; `hosts`/`tacs` are the dictionaries the
/// *_id columns index, in first-appearance order.
struct ProxyColumns {
  std::vector<util::SimTime> timestamp;
  std::vector<UserId> user_id;
  std::vector<std::uint32_t> tac_id;    ///< Index into `tacs`.
  std::vector<std::uint8_t> protocol;   ///< Raw Protocol byte.
  std::vector<std::uint32_t> host_id;   ///< Index into `hosts`.
  std::vector<std::uint64_t> bytes_up;
  std::vector<std::uint64_t> bytes_down;
  std::vector<std::uint64_t> bytes_total;
  std::vector<std::uint32_t> duration_ms;
  std::vector<std::string> hosts;       ///< Host dictionary.
  std::vector<Tac> tacs;                ///< TAC dictionary.

  [[nodiscard]] std::size_t size() const noexcept { return timestamp.size(); }
};

/// Columnar transpose of an MmeRecord vector.  Sector ids stay raw (the
/// kernels use them as keys directly); TACs are dictionary-coded so the
/// wearable classification becomes a per-entry flag array.
struct MmeColumns {
  std::vector<util::SimTime> timestamp;
  std::vector<UserId> user_id;
  std::vector<std::uint32_t> tac_id;   ///< Index into `tacs`.
  std::vector<std::uint8_t> event;     ///< Raw MmeEvent byte.
  std::vector<SectorId> sector_id;
  std::vector<Tac> tacs;               ///< TAC dictionary.

  [[nodiscard]] std::size_t size() const noexcept { return timestamp.size(); }
};

/// Append the tasks that fill `cols` with the transpose of `rows` to
/// `batch`, each task owning whole columns, so the result is the same
/// however the batch runs.  `rows`, `hosts` and `cols` must outlive it.
/// TraceStore::build_columns runs both logs' tasks as one batch.
void schedule_proxy_columns(const std::vector<ProxyRecord>& rows,
                            const StringPool& hosts, ProxyColumns& cols,
                            std::vector<std::function<void()>>& batch);
void schedule_mme_columns(const std::vector<MmeRecord>& rows, MmeColumns& cols,
                          std::vector<std::function<void()>>& batch);

/// Builds the transpose of `rows`, whose host ids index `hosts`.  The
/// independent columns fill as separate tasks on `pool` when given
/// (nullptr == inline); the result is bitwise identical for any pool size
/// — each task owns whole columns.
[[nodiscard]] ProxyColumns build_proxy_columns(
    const std::vector<ProxyRecord>& rows, const StringPool& hosts,
    par::TaskPool* pool = nullptr);
[[nodiscard]] MmeColumns build_mme_columns(const std::vector<MmeRecord>& rows,
                                           par::TaskPool* pool = nullptr);

}  // namespace wearscope::trace
