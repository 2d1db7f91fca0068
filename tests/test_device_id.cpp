// Unit tests for wearable identification from the DeviceDB.
#include "core/device_id.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

namespace wearscope::core {
namespace {

std::vector<trace::DeviceRecord> sample_db() {
  return {
      {35254208, "Gear S3 frontier LTE", "Samsung", "Tizen"},
      {35254209, "Gear S3 frontier LTE", "Samsung", "Tizen"},
      {35909306, "Watch Urbane 2nd Edition LTE", "LG", "Android Wear"},
      {35332008, "iPhone 7", "Apple", "iOS"},
      {35831108, "Galaxy S8", "Samsung", "Android"},
  };
}

TEST(DeviceClassifier, WearablesByModelList) {
  const DeviceClassifier c(sample_db());
  EXPECT_EQ(c.classify(35254208), DeviceKind::kSimWearable);
  EXPECT_EQ(c.classify(35254209), DeviceKind::kSimWearable);
  EXPECT_EQ(c.classify(35909306), DeviceKind::kSimWearable);
  EXPECT_TRUE(c.is_wearable(35254208));
  EXPECT_EQ(c.wearable_tacs().size(), 3u);
}

TEST(DeviceClassifier, PhonesAreOtherEvenFromWearableVendors) {
  const DeviceClassifier c(sample_db());
  EXPECT_EQ(c.classify(35831108), DeviceKind::kOther);  // Samsung phone
  EXPECT_EQ(c.classify(35332008), DeviceKind::kOther);  // iPhone
  EXPECT_FALSE(c.is_wearable(35831108));
}

TEST(DeviceClassifier, UnknownTacs) {
  const DeviceClassifier c(sample_db());
  EXPECT_EQ(c.classify(99999999), DeviceKind::kUnknown);
}

TEST(DeviceClassifier, MatchIsCaseInsensitive) {
  std::vector<trace::DeviceRecord> db = {
      {1, "GEAR S3 FRONTIER LTE", "SAMSUNG", "Tizen"}};
  const DeviceClassifier c(db);
  EXPECT_TRUE(c.is_wearable(1));
}

TEST(DeviceClassifier, AppleWatchListedButAbsentFromDb) {
  // The curated list includes the Apple Watch 3, but the operator's DB has
  // no such row (paper §3.2) — so no TAC ever classifies as an Apple
  // wearable.
  bool apple_listed = false;
  for (const WearableModelEntry& e : curated_wearable_models()) {
    if (e.manufacturer == "Apple") apple_listed = true;
  }
  EXPECT_TRUE(apple_listed);
  const DeviceClassifier c(sample_db());
  for (const trace::Tac t : c.wearable_tacs()) {
    EXPECT_NE(t, 35332008u);
  }
}

TEST(DeviceClassifier, EmptyDb) {
  const DeviceClassifier c({});
  EXPECT_EQ(c.classify(1), DeviceKind::kUnknown);
  EXPECT_TRUE(c.wearable_tacs().empty());
}

TEST(DeviceClassifier, FromManufacturersOverMatches) {
  const std::vector<std::string_view> vendors = {"Samsung", "LG"};
  const DeviceClassifier naive =
      DeviceClassifier::from_manufacturers(sample_db(), vendors);
  // The naive manufacturer classifier tags the Galaxy S8 phone too.
  EXPECT_TRUE(naive.is_wearable(35831108));
  EXPECT_TRUE(naive.is_wearable(35254208));
  EXPECT_FALSE(naive.is_wearable(35332008));  // Apple phone stays out
  const DeviceClassifier curated(sample_db());
  EXPECT_GT(naive.wearable_tacs().size(), curated.wearable_tacs().size());
}

/// is_wearable(t) == (classify(t) == kSimWearable) for every TAC of `db`
/// and for TACs around and outside them, and the wearable TACs are sorted
/// and unique (is_wearable binary-searches them).
void expect_consistent(const DeviceClassifier& c,
                       const std::vector<trace::DeviceRecord>& db) {
  std::vector<trace::Tac> probes = {0, 1, 99999999, 0xffffffffu};
  for (const trace::DeviceRecord& d : db) {
    probes.push_back(d.tac);
    probes.push_back(d.tac - 1);
    probes.push_back(d.tac + 1);
  }
  for (const trace::Tac t : probes) {
    EXPECT_EQ(c.is_wearable(t), c.classify(t) == DeviceKind::kSimWearable)
        << "tac " << t;
  }
  const std::vector<trace::Tac>& tacs = c.wearable_tacs();
  EXPECT_TRUE(std::is_sorted(tacs.begin(), tacs.end()));
  EXPECT_EQ(std::adjacent_find(tacs.begin(), tacs.end()), tacs.end());
}

TEST(DeviceClassifier, IsWearableAgreesWithClassify) {
  // Unsorted TACs, a wearable row listed twice, and one TAC listed both as
  // a wearable model and as a phone (the wearable row wins).
  std::vector<trace::DeviceRecord> db = sample_db();
  db.push_back({35254208, "Gear S3 frontier LTE", "Samsung", "Tizen"});
  db.push_back({35100001, "Watch Sport", "LG", "Android Wear"});
  db.push_back({35100001, "G6", "LG", "Android"});
  db.push_back({35000001, "Gear S 750", "Samsung", "Tizen"});

  const DeviceClassifier curated(db);
  expect_consistent(curated, db);
  EXPECT_EQ(curated.wearable_tacs(),
            (std::vector<trace::Tac>{35000001, 35100001, 35254208, 35254209,
                                     35909306}));
  EXPECT_EQ(curated.classify(35100001), DeviceKind::kSimWearable);
  EXPECT_EQ(curated.classify(35831108), DeviceKind::kOther);

  // Manufacturer lists overlap the curated models and each other, so the
  // same TAC is found by several rows and several names.
  const std::vector<std::string_view> vendors = {"Samsung", "LG", "samsung"};
  const DeviceClassifier naive =
      DeviceClassifier::from_manufacturers(db, vendors);
  expect_consistent(naive, db);
  EXPECT_EQ(naive.wearable_tacs(),
            (std::vector<trace::Tac>{35000001, 35100001, 35254208, 35254209,
                                     35831108, 35909306}));
  EXPECT_FALSE(naive.is_wearable(35332008));  // Apple phone stays out

  const DeviceClassifier empty({});
  expect_consistent(empty, {});
}

}  // namespace
}  // namespace wearscope::core
