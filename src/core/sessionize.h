// Usage sessionization (paper §5.1): "the number of internet transactions
// made by the app within a single usage (i.e., until when the two
// consecutive transactions are made at least one minute apart)".
//
// A usage therefore groups a user's consecutive same-app transactions whose
// inter-arrival gaps stay below the threshold (default 60 s).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "appdb/app_catalog.h"
#include "core/app_id.h"
#include "trace/records.h"
#include "util/sim_time.h"

namespace wearscope::core {

/// One reconstructed app usage of one user.
struct Usage {
  trace::UserId user_id = 0;
  appdb::AppId app = kUnknownApp;
  util::SimTime start = 0;
  util::SimTime end = 0;
  std::uint32_t transactions = 0;
  std::uint64_t bytes = 0;

  /// Usage duration in seconds.
  [[nodiscard]] util::SimTime duration_s() const noexcept {
    return end - start;
  }
};

/// Default sessionization gap from the paper's definition.
inline constexpr util::SimTime kDefaultUsageGapS = 60;

/// Groups one user's time-sorted records into usages.
///
/// `rows` are the rows of `log` holding the user's proxy records in
/// timestamp order; `apps` the per-record attribution (index-aligned, from
/// attribute_user_stream).  Transactions attributed to different apps open
/// separate concurrent usages; unknown-app transactions form their own
/// usages under kUnknownApp.
std::vector<Usage> sessionize_user(
    std::span<const trace::ProxyRecord> log,
    std::span<const std::uint32_t> rows, std::span<const EndpointClass> apps,
    util::SimTime gap_s = kDefaultUsageGapS);

}  // namespace wearscope::core
