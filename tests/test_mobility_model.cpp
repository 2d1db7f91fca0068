// Unit tests for the daily mobility model.
#include "simnet/mobility.h"

#include "util/stats.h"

#include <gtest/gtest.h>

namespace wearscope::simnet {
namespace {

struct World {
  SimConfig cfg = SimConfig::small();
  appdb::AppCatalog apps{cfg.long_tail_apps};
  appdb::DeviceModelCatalog devices;
  Geography geo{cfg, util::Pcg32(1)};
  Population pop{cfg, geo, apps, devices, util::Pcg32(2)};
  MobilityModel mobility{cfg, geo};

  const Subscriber& owner(std::size_t i = 0) const {
    return *pop.of_segment(Segment::kWearableOwner).at(i);
  }
};

TEST(Itinerary, StartsAtHomeAtMidnight) {
  World w;
  util::Pcg32 rng(3);
  for (int day = 0; day < 14; ++day) {
    const DayItinerary it = w.mobility.build_day(w.owner(), day, rng);
    ASSERT_FALSE(it.legs.empty());
    EXPECT_EQ(it.legs.front().start, util::day_start(day));
    EXPECT_EQ(it.legs.front().sector, w.owner().home_sector);
  }
}

TEST(Itinerary, LegsAreTimeSortedWithinDay) {
  World w;
  util::Pcg32 rng(4);
  for (int day = 0; day < 30; ++day) {
    const DayItinerary it = w.mobility.build_day(w.owner(day % 10), day, rng);
    for (std::size_t i = 1; i < it.legs.size(); ++i) {
      EXPECT_GE(it.legs[i].start, it.legs[i - 1].start);
      EXPECT_LT(it.legs[i].start, util::day_start(day + 1));
    }
  }
}

TEST(Itinerary, SectorAtRespectsLegBoundaries) {
  DayItinerary it;
  it.day = 0;
  it.legs = {{0, 1}, {100, 2}, {200, 3}};
  EXPECT_EQ(it.sector_at(-5), 1u);  // clamps before first leg
  EXPECT_EQ(it.sector_at(0), 1u);
  EXPECT_EQ(it.sector_at(99), 1u);
  EXPECT_EQ(it.sector_at(100), 2u);
  EXPECT_EQ(it.sector_at(150), 2u);
  EXPECT_EQ(it.sector_at(1000), 3u);
}

TEST(Itinerary, DistinctSectorsDeduplicates) {
  DayItinerary it;
  it.legs = {{0, 1}, {10, 2}, {20, 1}, {30, 3}};
  EXPECT_EQ(it.distinct_sectors(),
            (std::vector<trace::SectorId>{1, 2, 3}));
}

TEST(MobilityModel, CommuteAppearsOnWeekdays) {
  World w;
  util::Pcg32 rng(5);
  int with_work = 0;
  int weekdays = 0;
  const Subscriber& sub = w.owner();
  for (int day = 0; day < 140; ++day) {
    if (util::is_weekend_day(day)) continue;
    ++weekdays;
    const DayItinerary it = w.mobility.build_day(sub, day, rng);
    for (const ItineraryLeg& leg : it.legs) {
      if (leg.sector == sub.work_sector && leg.start > util::day_start(day)) {
        ++with_work;
        break;
      }
    }
  }
  // Commute probability is 0.4..0.8; expect a healthy share of workdays.
  EXPECT_GT(static_cast<double>(with_work) / weekdays, 0.35);
}

TEST(MobilityModel, EmitMmeStartsWithAttachThenHandoversAndTaus) {
  World w;
  util::Pcg32 rng(6);
  const Subscriber& sub = w.owner();
  const DayItinerary it = w.mobility.build_day(sub, 3, rng);
  trace::Rows<trace::MmeRecord> mme;
  w.mobility.emit_mme(it, sub, sub.phone_tac, mme);
  ASSERT_FALSE(mme.empty());
  EXPECT_EQ(mme.front().event, trace::MmeEvent::kAttach);
  EXPECT_EQ(mme.front().sector_id, sub.home_sector);
  EXPECT_EQ(mme.front().user_id, sub.user_id);
  for (std::size_t i = 1; i < mme.size(); ++i) {
    EXPECT_GE(mme[i].timestamp, mme[i - 1].timestamp);
    EXPECT_EQ(mme[i].tac, sub.phone_tac);
    if (mme[i].event == trace::MmeEvent::kHandover) {
      EXPECT_NE(mme[i].sector_id, mme[i - 1].sector_id)
          << "handover must change sector";
    } else {
      // Keep-alives re-report the current sector.
      EXPECT_EQ(mme[i].event, trace::MmeEvent::kTau);
      EXPECT_EQ(mme[i].sector_id, mme[i - 1].sector_id);
    }
  }
}

TEST(MobilityModel, TauKeepAlivesCoverStationaryStretches) {
  World w;
  const Subscriber& sub = w.owner();
  DayItinerary it;
  it.day = 0;
  it.legs = {{util::day_start(0), sub.home_sector}};  // static all day
  trace::Rows<trace::MmeRecord> mme;
  w.mobility.emit_mme(it, sub, sub.phone_tac, mme,
                      /*tau_interval_s=*/6 * util::kSecondsPerHour);
  // Attach at 00:00 plus TAUs at 06:00, 12:00, 18:00.
  ASSERT_EQ(mme.size(), 4u);
  EXPECT_EQ(mme[0].event, trace::MmeEvent::kAttach);
  for (std::size_t i = 1; i < mme.size(); ++i) {
    EXPECT_EQ(mme[i].event, trace::MmeEvent::kTau);
    EXPECT_EQ(mme[i].sector_id, sub.home_sector);
    EXPECT_EQ(mme[i].timestamp,
              util::day_start(0) +
                  static_cast<util::SimTime>(i) * 6 * util::kSecondsPerHour);
  }
}

TEST(MobilityModel, TauDisabledWithZeroInterval) {
  World w;
  const Subscriber& sub = w.owner();
  DayItinerary it;
  it.day = 0;
  it.legs = {{util::day_start(0), sub.home_sector}};
  trace::Rows<trace::MmeRecord> mme;
  w.mobility.emit_mme(it, sub, sub.phone_tac, mme, /*tau_interval_s=*/0);
  EXPECT_EQ(mme.size(), 1u);
}

TEST(MobilityModel, MaxDisplacementZeroForSingleSector) {
  World w;
  DayItinerary it;
  it.legs = {{0, 1}, {100, 1}};
  EXPECT_DOUBLE_EQ(w.mobility.max_displacement_km(it), 0.0);
}

TEST(MobilityModel, MaxDisplacementMatchesGeography) {
  World w;
  DayItinerary it;
  it.legs = {{0, 1}, {100, 2}};
  const double expected = util::haversine_km(w.geo.sector_position(1),
                                             w.geo.sector_position(2));
  EXPECT_NEAR(w.mobility.max_displacement_km(it), expected, 1e-9);
}

TEST(MobilityModel, OwnersTravelFartherThanControls) {
  World w;
  util::Pcg32 rng(7);
  util::OnlineStats owners;
  util::OnlineStats controls;
  for (int day = 0; day < 28; ++day) {
    for (const Subscriber* s :
         w.pop.of_segment(Segment::kWearableOwner)) {
      owners.add(
          w.mobility.max_displacement_km(w.mobility.build_day(*s, day, rng)));
    }
    for (const Subscriber* s : w.pop.of_segment(Segment::kControl)) {
      controls.add(
          w.mobility.max_displacement_km(w.mobility.build_day(*s, day, rng)));
    }
  }
  EXPECT_GT(owners.mean(), controls.mean() * 1.3);
}

}  // namespace
}  // namespace wearscope::simnet
