// Per-day traffic generation.
//
// Wearable side: decides registration (MME presence), daily activity, the
// day's app set ("93% run only one app per day"), per-hour usages and the
// transactions inside each usage (inter-transaction gaps < 60 s so the
// paper's sessionization recovers usages).  Endpoints are drawn from the
// app's first-party domains or its third-party mix (CDN/ads/analytics).
//
// Phone side: coarser foreground-traffic records calibrated so wearable
// owners produce +26% data / +48% transactions vs control users (Fig. 4a)
// and the wearable/total volume ratio sits near 1e-3 (Fig. 4b).  Phones of
// fingerprintable Through-Device users additionally emit companion-app
// sync traffic (conclusion §6).
#pragma once

#include <vector>

#include "appdb/app_catalog.h"
#include "simnet/config.h"
#include "simnet/mobility.h"
#include "simnet/population.h"
#include "trace/store.h"
#include "util/rng.h"

namespace wearscope::simnet {

/// Cheap per-day decisions shared by the summary pass (five months) and the
/// detailed pass (last weeks): both must agree on who registers and who
/// transacts, so both derive from the same forked RNG stream.
struct WearableDayPlan {
  bool registered = false;  ///< Appears in the MME log today.
  bool active = false;      ///< Generates at least one transaction today.
  std::vector<int> active_hours;  ///< Hours of day with usage (if active).
};

/// Generates wearable and phone traffic records.
class TrafficModel {
 public:
  TrafficModel(const SimConfig& config, const appdb::AppCatalog& apps);

  /// Deterministic day plan for a wearable owner. `rng` must be the
  /// canonical (user, day) plan stream (see Simulator).
  [[nodiscard]] WearableDayPlan plan_wearable_day(const Subscriber& sub,
                                                  int day,
                                                  util::Pcg32& rng) const;

  /// Materializes the wearable's proxy transactions for an active day,
  /// appending them to `out.proxy` with hosts and paths interned into
  /// `out`'s pools.
  void generate_wearable_day(const Subscriber& sub,
                             const WearableDayPlan& plan,
                             const DayItinerary& itinerary, util::Pcg32& rng,
                             trace::TraceStore& out) const;

  /// Materializes the smartphone's proxy transactions for one day (same
  /// output contract as generate_wearable_day).
  void generate_phone_day(const Subscriber& sub, int day,
                          const DayItinerary& itinerary, util::Pcg32& rng,
                          trace::TraceStore& out) const;

  /// Per-user mean active hours per day (Fig. 3b mixture; exposed for
  /// calibration tests).
  [[nodiscard]] double mean_active_hours_of(const Subscriber& sub) const;

 private:
  /// Emits the transactions of one app usage starting at `start`; stops
  /// at `end_limit` (the day boundary) so a late usage cannot bleed into
  /// the next day's activity accounting.
  void emit_usage(const Subscriber& sub, const appdb::AppInfo& app,
                  util::SimTime start, util::SimTime end_limit,
                  double intensity, trace::Tac tac, util::Pcg32& rng,
                  trace::TraceStore& out) const;

  /// Picks today's distinct wearable app set.
  [[nodiscard]] std::vector<appdb::AppId> pick_day_apps(
      const Subscriber& sub, util::Pcg32& rng) const;

  /// Draws one endpoint host (+ optional path) for a transaction of `app`.
  struct Endpoint {
    std::string host;
    std::string path;
    bool is_http = false;
    double bytes_scale = 1.0;
  };
  [[nodiscard]] Endpoint pick_endpoint(const appdb::AppInfo& app,
                                       util::Pcg32& rng) const;

  const SimConfig* config_;
  const appdb::AppCatalog* apps_;
};

}  // namespace wearscope::simnet
