#include "simnet/mobility.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace wearscope::simnet {

namespace {
constexpr util::SimTime kHour = util::kSecondsPerHour;
}

trace::SectorId DayItinerary::sector_at(util::SimTime t) const {
  util::ensure(!legs.empty(), "itinerary has no legs");
  trace::SectorId current = legs.front().sector;
  for (const ItineraryLeg& leg : legs) {
    if (leg.start > t) break;
    current = leg.sector;
  }
  return current;
}

std::vector<trace::SectorId> DayItinerary::distinct_sectors() const {
  std::vector<trace::SectorId> out;
  for (const ItineraryLeg& leg : legs) {
    if (std::find(out.begin(), out.end(), leg.sector) == out.end())
      out.push_back(leg.sector);
  }
  return out;
}

MobilityModel::MobilityModel(const SimConfig& config,
                             const Geography& geography)
    : config_(&config), geography_(&geography) {}

DayItinerary MobilityModel::build_day(const Subscriber& sub, int day,
                                      util::Pcg32& rng) const {
  DayItinerary it;
  it.day = day;
  const util::SimTime base = util::day_start(day);
  const bool weekend = util::is_weekend_day(day);

  it.legs.push_back({base, sub.home_sector});

  // Rare inter-city trip: spend the day in another city.  Scales
  // superlinearly with the roaming level so sedentary users almost never
  // trip while wearable owners do noticeably more often.
  const double trip_p =
      config_->trip_probability *
      std::clamp(sub.mobility_level * sub.mobility_level / 1.5, 0.15, 4.0);
  if (rng.bernoulli(trip_p) && geography_->cities().size() > 1) {
    std::uint32_t dest_city = sub.home_city;
    for (int attempt = 0; attempt < 8 && dest_city == sub.home_city;
         ++attempt) {
      dest_city = geography_->sample_city(rng);
    }
    if (dest_city != sub.home_city) {
      const util::SimTime leave = base + 7 * kHour +
                                  rng.uniform_int(0, 2 * kHour);
      const trace::SectorId there =
          geography_->sample_sector_in_city(dest_city, rng);
      it.legs.push_back({leave, there});
      // Maybe wander within the destination city.
      if (rng.bernoulli(0.5)) {
        it.legs.push_back({leave + 4 * kHour,
                           geography_->sample_sector_in_city(dest_city, rng)});
      }
      const util::SimTime back = base + 19 * kHour +
                                 rng.uniform_int(0, 2 * kHour);
      it.legs.push_back({back, sub.home_sector});
      return it;
    }
  }

  // Commute propensity grows mildly with roaming level: sedentary users
  // stay home more often, widening the owner/control entropy gap.
  const double commute_p =
      std::clamp(0.55 + 0.07 * sub.mobility_level, 0.4, 0.8);
  if (!weekend && rng.bernoulli(commute_p)) {
    // Commuting day: morning leg 6-9 am, return 4-8 pm (Fig. 3a bumps).
    const util::SimTime leave = base + 6 * kHour +
                                rng.uniform_int(0, 3 * kHour);
    it.legs.push_back({leave, sub.work_sector});
    // Lunchtime errand near work occasionally.
    if (!sub.errand_sectors.empty() && rng.bernoulli(0.25)) {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(sub.errand_sectors.size()) - 1));
      it.legs.push_back({base + 12 * kHour + rng.uniform_int(0, kHour),
                         sub.errand_sectors[idx]});
      it.legs.push_back({base + 13 * kHour + rng.uniform_int(0, kHour),
                         sub.work_sector});
    }
    const util::SimTime back = base + 16 * kHour +
                               rng.uniform_int(0, 4 * kHour);
    // Evening errand on the way home (roamers stop by more often).
    const double evening_errand_p =
        std::clamp(0.06 + 0.13 * sub.mobility_level, 0.0, 0.55);
    if (!sub.errand_sectors.empty() && rng.bernoulli(evening_errand_p)) {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(sub.errand_sectors.size()) - 1));
      it.legs.push_back({back, sub.errand_sectors[idx]});
      it.legs.push_back({back + kHour + rng.uniform_int(0, kHour),
                         sub.home_sector});
    } else {
      it.legs.push_back({back, sub.home_sector});
    }
  } else {
    // Non-commuting day: errand count grows with the user's roaming level.
    const auto n_errands = static_cast<int>(rng.uniform_int(
        0, 1 + std::lround(std::min(sub.mobility_level * 1.4, 4.5))));
    util::SimTime t = base + 9 * kHour + rng.uniform_int(0, 3 * kHour);
    for (int e = 0; e < n_errands && !sub.errand_sectors.empty(); ++e) {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(sub.errand_sectors.size()) - 1));
      it.legs.push_back({t, sub.errand_sectors[idx]});
      // Roamers linger longer away from home (drives the entropy gap).
      const util::SimTime linger = static_cast<util::SimTime>(
          std::lround(std::min(sub.mobility_level, 3.0) * kHour / 2));
      t += kHour + linger + rng.uniform_int(0, 2 * kHour);
      it.legs.push_back({t, sub.home_sector});
      t += kHour + rng.uniform_int(0, 2 * kHour);
      if (t >= base + 21 * kHour) break;
    }
  }

  std::stable_sort(it.legs.begin(), it.legs.end(),
                   [](const ItineraryLeg& a, const ItineraryLeg& b) {
                     return a.start < b.start;
                   });
  // An itinerary never leaks into the next day: every leg must start
  // strictly before midnight (the next day re-attaches at home anyway).
  const util::SimTime day_end = base + util::kSecondsPerDay;
  std::erase_if(it.legs,
                [&](const ItineraryLeg& leg) { return leg.start >= day_end; });
  return it;
}

void MobilityModel::emit_mme(const DayItinerary& itinerary,
                             const Subscriber& sub, trace::Tac tac,
                             trace::Rows<trace::MmeRecord>& out,
                             util::SimTime tau_interval_s) const {
  bool first = true;
  trace::SectorId prev = 0;
  util::SimTime last_event = 0;
  const util::SimTime day_end =
      util::day_start(itinerary.day) + util::kSecondsPerDay;
  const auto emit_taus_until = [&](util::SimTime until) {
    if (tau_interval_s <= 0 || first) return;
    while (last_event + tau_interval_s < until) {
      last_event += tau_interval_s;
      out.push_back(
          {last_event, sub.user_id, tac, trace::MmeEvent::kTau, prev});
    }
  };
  for (const ItineraryLeg& leg : itinerary.legs) {
    emit_taus_until(leg.start);
    if (first) {
      out.push_back({leg.start, sub.user_id, tac, trace::MmeEvent::kAttach,
                     leg.sector});
      first = false;
    } else if (leg.sector != prev) {
      out.push_back({leg.start, sub.user_id, tac, trace::MmeEvent::kHandover,
                     leg.sector});
    } else {
      continue;  // same-sector leg: no new event, TAU cadence unchanged
    }
    prev = leg.sector;
    last_event = leg.start;
  }
  emit_taus_until(day_end);
}

double MobilityModel::max_displacement_km(const DayItinerary& it) const {
  const std::vector<trace::SectorId> sectors = it.distinct_sectors();
  double best = 0.0;
  for (std::size_t i = 0; i < sectors.size(); ++i) {
    for (std::size_t j = i + 1; j < sectors.size(); ++j) {
      best = std::max(best, util::haversine_km(
                                geography_->sector_position(sectors[i]),
                                geography_->sector_position(sectors[j])));
    }
  }
  return best;
}

}  // namespace wearscope::simnet
