// Daily human-mobility model.
//
// Each (user, day) gets an itinerary of sector visits: overnight at the home
// sector, a weekday commute to the work sector (producing the 6-9 am /
// 4-8 pm bumps of Fig. 3a), errands within the user's roaming radius, and
// occasional inter-city trips.  Wearable owners receive larger radii
// (Fig. 4c: ~2x max displacement, +70% location entropy).
//
// The itinerary serves two consumers: MME record emission, and locating the
// user when a transaction must be stamped with a position.
#pragma once

#include <vector>

#include "simnet/config.h"
#include "simnet/geography.h"
#include "simnet/population.h"
#include "trace/records.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace wearscope::simnet {

/// One stay at a sector, starting at an absolute timestamp.
struct ItineraryLeg {
  util::SimTime start = 0;
  trace::SectorId sector = 0;
};

/// A whole day's sequence of stays (legs are start-ordered; each lasts
/// until the next leg or midnight).
struct DayItinerary {
  int day = 0;
  std::vector<ItineraryLeg> legs;

  /// Sector the user occupies at absolute time `t` (clamps to the first
  /// leg before its start). Requires at least one leg.
  [[nodiscard]] trace::SectorId sector_at(util::SimTime t) const;

  /// Distinct sectors visited.
  [[nodiscard]] std::vector<trace::SectorId> distinct_sectors() const;
};

/// Builds itineraries and MME logs.
class MobilityModel {
 public:
  MobilityModel(const SimConfig& config, const Geography& geography);

  /// Deterministic itinerary for (subscriber, day); forked off `rng`.
  [[nodiscard]] DayItinerary build_day(const Subscriber& sub, int day,
                                       util::Pcg32& rng) const;

  /// Appends the MME events of `itinerary` for the device `tac` of `sub`
  /// to `out`: an attach on the first leg, a handover per sector change,
  /// and periodic tracking-area updates (TAU keep-alives) every
  /// `tau_interval_s` of stationary dwell, as a real MME would log.
  void emit_mme(const DayItinerary& itinerary, const Subscriber& sub,
                trace::Tac tac, trace::Rows<trace::MmeRecord>& out,
                util::SimTime tau_interval_s = 6 * util::kSecondsPerHour) const;

  /// Max displacement (km) across the itinerary's sectors — ground-truth
  /// counterpart of the Fig. 4c metric (used in calibration tests only).
  [[nodiscard]] double max_displacement_km(const DayItinerary& it) const;

 private:
  const SimConfig* config_;
  const Geography* geography_;
};

}  // namespace wearscope::simnet
