// §6 (conclusion) — Through-Device wearables: fingerprinting smartphone
// traffic for wearable-vendor endpoints (Fitbit, Xiaomi) and the wearable
// endpoints of companion apps (AccuWeather, Strava, Runtastic), then
// comparing detected users' macroscopic behaviour with SIM-enabled users.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/context.h"
#include "core/report.h"

namespace wearscope::core {

/// Structured results of the through-device study.
struct ThroughDeviceResult {
  /// Users without a SIM wearable whose phone traffic matched a signature.
  std::size_t detected_users = 0;
  /// Matches per fingerprint (index-aligned with companion_signatures()).
  std::vector<std::size_t> per_signature;
  std::vector<std::string> signature_names;
  /// Macroscopic comparison (detected TD users vs SIM-wearable owners).
  double daily_txn_ratio = 0.0;      ///< TD/SIM phone txns per day.
  double daily_bytes_ratio = 0.0;    ///< TD/SIM phone bytes per day.
  double entropy_ratio = 0.0;        ///< TD/SIM location entropy.
  /// Hourly phone-transaction profiles (normalized shares) and their
  /// correlation — the "similar macroscopic behaviour" claim made precise.
  std::array<double, 24> td_hourly{};
  std::array<double, 24> sim_hourly{};
  double diurnal_similarity = 0.0;   ///< Pearson of the two profiles.
};

/// One user slice's share of the through-device study: the per-user
/// values in user order and the slice's sums.
struct ThroughDevicePartial {
  std::size_t detected_users = 0;
  std::vector<std::size_t> per_signature;
  std::vector<double> td_txns;
  std::vector<double> td_bytes;
  std::vector<double> td_entropy;
  std::vector<double> sim_txns;
  std::vector<double> sim_bytes;
  std::vector<double> sim_entropy;
  std::array<double, 24> td_hours{};  ///< Phone transactions per hour.
  std::array<double, 24> sim_hours{};
};

/// The study in parts, so the pipeline can run it as user slices.  The
/// constructor matches the companion signatures against the store's host
/// pool; partial() covers a slice of ctx.users() and may run
/// concurrently with other calls; finish() merges partials that cover
/// every user, in slice order.  Any slicing gives the same result: the
/// per-user vectors concatenate back into user order, and the hourly sums
/// are integer-valued doubles, exact in any grouping.
class ThroughDevicePass {
 public:
  explicit ThroughDevicePass(const AnalysisContext& ctx);

  /// The share of users [lo, hi).
  [[nodiscard]] ThroughDevicePartial partial(std::size_t lo,
                                             std::size_t hi) const;

  [[nodiscard]] ThroughDeviceResult finish(
      std::span<const ThroughDevicePartial> partials) const;

 private:
  const AnalysisContext* ctx_;
  /// Signature bitmask per host-pool id (bit s == signature s).
  std::vector<std::uint32_t> host_sigs_;
};

/// Runs the study over the detailed window: one partial over every user,
/// then finish().
ThroughDeviceResult analyze_throughdevice(const AnalysisContext& ctx);

/// Renders the §6 comparison with its checks.
FigureData figure_sec6(const ThroughDeviceResult& r);

}  // namespace wearscope::core
