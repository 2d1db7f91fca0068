// Unit tests for the synthetic country geography.
#include "simnet/geography.h"

#include <set>

#include <gtest/gtest.h>

#include "util/error.h"

namespace wearscope::simnet {
namespace {

SimConfig test_config() {
  SimConfig c = SimConfig::small();
  c.cities = 5;
  c.sectors_per_city = 10;
  return c;
}

TEST(Geography, BuildsCitiesAndSectors) {
  const SimConfig cfg = test_config();
  const Geography geo(cfg, util::Pcg32(1));
  EXPECT_EQ(geo.cities().size(), 5u);
  EXPECT_GE(geo.sectors().size(), 10u);  // at least 2 per city
  for (const City& c : geo.cities()) {
    EXPECT_GE(c.sector_ids.size(), 2u);
  }
}

TEST(Geography, SectorIdsAreDenseFromOne) {
  const Geography geo(test_config(), util::Pcg32(2));
  std::set<trace::SectorId> ids;
  for (const trace::SectorInfo& s : geo.sectors()) ids.insert(s.sector_id);
  EXPECT_EQ(ids.size(), geo.sectors().size());
  EXPECT_EQ(*ids.begin(), 1u);
  EXPECT_EQ(*ids.rbegin(), geo.sectors().size());
}

TEST(Geography, SectorsLieNearTheirCity) {
  const Geography geo(test_config(), util::Pcg32(3));
  for (const City& c : geo.cities()) {
    for (const trace::SectorId id : c.sector_ids) {
      const double d = util::haversine_km(geo.sector_position(id), c.center);
      EXPECT_LE(d, c.radius_km + 0.5);
      EXPECT_EQ(geo.city_of_sector(id).id, c.id);
    }
  }
}

TEST(Geography, CapitalHasMostSectors) {
  const Geography geo(test_config(), util::Pcg32(4));
  // City 0 has the highest population weight -> most sectors.
  for (std::size_t c = 1; c < geo.cities().size(); ++c) {
    EXPECT_GE(geo.cities()[0].sector_ids.size(),
              geo.cities()[c].sector_ids.size());
  }
}

TEST(Geography, SampleCityFavoursCapital) {
  const Geography geo(test_config(), util::Pcg32(5));
  util::Pcg32 rng(6);
  std::array<int, 5> counts{};
  for (int i = 0; i < 20000; ++i) counts[geo.sample_city(rng)]++;
  EXPECT_GT(counts[0], counts[4]);
}

TEST(Geography, SampleSectorInCityBelongsToIt) {
  const Geography geo(test_config(), util::Pcg32(7));
  util::Pcg32 rng(8);
  for (int i = 0; i < 200; ++i) {
    const trace::SectorId id = geo.sample_sector_in_city(2, rng);
    EXPECT_EQ(geo.city_of_sector(id).id, 2u);
  }
}

TEST(Geography, SampleSectorNearRespectsRadiusOrFallsBack) {
  const Geography geo(test_config(), util::Pcg32(9));
  util::Pcg32 rng(10);
  const City& city = geo.cities()[0];
  for (int i = 0; i < 100; ++i) {
    const trace::SectorId id =
        geo.sample_sector_near(0, city.center, 3.0, rng);
    EXPECT_EQ(geo.city_of_sector(id).id, 0u);
  }
  // A far-away anchor with a tiny radius falls back to the nearest sector.
  const util::GeoPoint far = util::destination(city.center, 0.0, 500.0);
  const trace::SectorId nearest = geo.sample_sector_near(0, far, 0.1, rng);
  EXPECT_EQ(geo.city_of_sector(nearest).id, 0u);
}

TEST(Geography, UnknownSectorThrows) {
  const Geography geo(test_config(), util::Pcg32(11));
  EXPECT_THROW((void)geo.sector_position(0), util::ConfigError);
  EXPECT_THROW((void)geo.sector_position(
                   static_cast<trace::SectorId>(geo.sectors().size() + 1)),
               util::ConfigError);
}

TEST(Geography, DeterministicForEqualSeeds) {
  const Geography a(test_config(), util::Pcg32(42));
  const Geography b(test_config(), util::Pcg32(42));
  ASSERT_EQ(a.sectors().size(), b.sectors().size());
  for (std::size_t i = 0; i < a.sectors().size(); ++i) {
    EXPECT_EQ(a.sectors()[i], b.sectors()[i]);
  }
}

}  // namespace
}  // namespace wearscope::simnet
