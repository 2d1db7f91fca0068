// The log records produced by the three vantage points of the measurement
// infrastructure (paper §3.1, Fig. 1):
//
//   * the transparent Web-proxy       -> ProxyRecord   (one HTTP/S transaction)
//   * the MME                         -> MmeRecord     (attach/handover/detach)
//   * the Device database             -> DeviceRecord  (TAC -> model/OS/vendor)
//
// plus the antenna-sector database (SectorInfo) that maps sector ids to
// geographic positions for the mobility analyses.
//
// These records are the *only* interface between the synthetic ISP (simnet)
// and the analysis pipeline (core): the pipeline never sees ground truth.
// A proxy record names its host and URL path by id; the strings live once
// per capture in the pools of trace/string_pool.h.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/geo.h"
#include "util/sim_time.h"

namespace wearscope::trace {

/// Anonymized subscriber identifier (stable across vantage points, as the
/// ISP's anonymization in the paper preserves joinability).
using UserId = std::uint64_t;

/// Antenna sector identifier as tracked by the MME.
using SectorId = std::uint32_t;

/// IMEI Type Allocation Code: the first 8 digits of the IMEI, identifying
/// the device model. The DeviceDB is keyed by TAC.
using Tac = std::uint32_t;

/// Application-layer protocol observed by the transparent proxy.
enum class Protocol : std::uint8_t {
  kHttp = 0,   ///< Full URL visible.
  kHttps = 1,  ///< Only the TLS SNI visible.
};

/// One HTTP/HTTPS transaction logged by the transparent Web-proxy.  The
/// host and URL path are ids into string pools kept next to the rows
/// (trace/string_pool.h), which keeps the record trivially copyable.
struct ProxyRecord {
  util::SimTime timestamp = 0;   ///< Transaction start time.
  UserId user_id = 0;            ///< Anonymized subscriber.
  Tac tac = 0;                   ///< TAC of the device that sent it.
  Protocol protocol = Protocol::kHttps;
  std::uint32_t host_id = 0;     ///< SNI (HTTPS) or URL host (HTTP), as
                                 ///< an id into the store's host pool.
  std::uint32_t path_id = 0;     ///< URL path ("" for HTTPS), as an id
                                 ///< into the store's path pool.
  std::uint64_t bytes_up = 0;    ///< Uplink payload bytes.
  std::uint64_t bytes_down = 0;  ///< Downlink payload bytes.
  std::uint32_t duration_ms = 0; ///< Transaction duration.

  /// Total payload volume of the transaction.
  [[nodiscard]] std::uint64_t bytes_total() const noexcept {
    return bytes_up + bytes_down;
  }

  friend bool operator==(const ProxyRecord&, const ProxyRecord&) = default;
};

static_assert(std::is_trivially_copyable_v<ProxyRecord>);

/// MME signalling event kinds retained by the collection pipeline.
enum class MmeEvent : std::uint8_t {
  kAttach = 0,    ///< Device registered with the network.
  kHandover = 1,  ///< Device moved to a different sector.
  kDetach = 2,    ///< Device left the network.
  kTau = 3,       ///< Periodic tracking-area update (keep-alive).
};

/// One mobility-management event: "user u was at sector s at time t".
struct MmeRecord {
  util::SimTime timestamp = 0;
  UserId user_id = 0;
  Tac tac = 0;
  MmeEvent event = MmeEvent::kAttach;
  SectorId sector_id = 0;

  friend bool operator==(const MmeRecord&, const MmeRecord&) = default;
};

/// One row of the Device database: TAC -> commercial device description.
/// Note the DB does *not* say "this is a wearable"; classifying models is
/// the analyst's job (paper §3.2) and is done in core::DeviceClassifier.
struct DeviceRecord {
  Tac tac = 0;
  std::string model;         ///< e.g. "Gear S3 frontier LTE".
  std::string manufacturer;  ///< e.g. "Samsung".
  std::string os;            ///< e.g. "Tizen", "Android Wear", "iOS".

  friend bool operator==(const DeviceRecord&, const DeviceRecord&) = default;
};

/// One antenna sector with its geographic position.
struct SectorInfo {
  SectorId sector_id = 0;
  util::GeoPoint position;

  friend bool operator==(const SectorInfo&, const SectorInfo&) = default;
};

/// The allocator of the event logs' rows.  Its no-argument construct()
/// does nothing, so `resize(n)` and `Rows(n)` size a log without writing
/// it: each decode task is the first writer of its own slice, on its own
/// thread, instead of the caller zero-filling every row first.  Only the
/// trivially copyable records use it (they are implicit-lifetime types,
/// so the allocation holds them); a row sized this way holds unspecified
/// values until written, and nothing reads rows as raw bytes (padding
/// stays unwritten).  Every other construct() is the usual one.
template <typename T>
struct UnwrittenRowAllocator {
  static_assert(std::is_trivially_copyable_v<T>);
  using value_type = T;

  UnwrittenRowAllocator() = default;
  template <typename U>
  UnwrittenRowAllocator(const UnwrittenRowAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    std::allocator<T>{}.deallocate(p, n);
  }
  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }

  template <typename U>
  friend bool operator==(const UnwrittenRowAllocator&,
                         const UnwrittenRowAllocator<U>&) noexcept {
    return true;
  }
};

/// The rows of one log as readers return them and TraceStore holds them:
/// sized without writing for the two event logs, a plain std::vector for
/// the DeviceDB and the sector list (their records hold strings or are
/// small, and keep real construction).
template <typename Record>
using Rows =
    std::conditional_t<std::is_same_v<Record, ProxyRecord> ||
                           std::is_same_v<Record, MmeRecord>,
                       std::vector<Record, UnwrittenRowAllocator<Record>>,
                       std::vector<Record>>;

/// Orders records by (timestamp, user) — the canonical log order.
struct ByTimeThenUser {
  bool operator()(const ProxyRecord& a, const ProxyRecord& b) const noexcept {
    return a.timestamp != b.timestamp ? a.timestamp < b.timestamp
                                      : a.user_id < b.user_id;
  }
  bool operator()(const MmeRecord& a, const MmeRecord& b) const noexcept {
    return a.timestamp != b.timestamp ? a.timestamp < b.timestamp
                                      : a.user_id < b.user_id;
  }
};

}  // namespace wearscope::trace
