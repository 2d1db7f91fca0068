// Golden bytes of every binary format: the v3 trace logs the writer makes
// of a fixed record set, the checked-in v1/v2 fixtures of the same records
// (tests/data/legacy), and the WSFD encoding of a fixed partial snapshot,
// pinned by size and CRC32.  Round-trip tests cannot see a layout change
// that the writer and reader make together; these constants can.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>

#include "fed/partial_io.h"
#include "trace/bundle.h"
#include "util/crc32.h"
#include "legacy_fixtures.h"

namespace wearscope {
namespace {

struct Golden {
  std::size_t size = 0;
  std::uint32_t crc = 0;
};

Golden golden_of(const std::string& bytes) {
  return {bytes.size(),
          util::crc32(std::as_bytes(std::span(bytes.data(), bytes.size())))};
}

void expect_golden(const std::string& bytes, Golden want,
                   const std::string& what) {
  const Golden got = golden_of(bytes);
  EXPECT_EQ(got.size, want.size) << what;
  EXPECT_EQ(got.crc, want.crc) << what << std::hex << " crc 0x" << got.crc;
}

/// Checks the four logs of the bundle in `dir` against `want`.
void expect_bundle_files(const std::filesystem::path& dir,
                         const Golden (&want)[4], const std::string& what) {
  const char* stems[] = {"proxy", "mme", "devices", "sectors"};
  for (int i = 0; i < 4; ++i) {
    expect_golden(testing::slurp(dir / (std::string(stems[i]) + ".bin")),
                  want[i], what + " " + stems[i]);
  }
}

/// A scratch directory for one saved bundle, removed on scope exit.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("wearscope_codec_golden_" + tag + "_" +
              std::to_string(::getpid()))) {}
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

constexpr Golden kV3Golden[4] = {{882, 0x0410527b},
                                 {331, 0x6dd4ff31},
                                 {162, 0xb134175a},
                                 {161, 0x6106878d}};

fed::PartialSnapshot fixed_partial(bool sketch) {
  fed::PartialSnapshot p;
  p.header.partition_id = 1;
  p.header.partition_count = 3;
  p.header.epoch = 4;
  p.header.records = 1234;
  p.header.feed_records = 3700;
  p.header.observation_days = 30;
  p.header.detailed_start_day = 23;
  p.header.usage_gap_s = 60;
  p.header.long_tail_apps = 20;
  p.header.signature_coverage = 0.875;
  p.header.sketch_enabled = sketch ? 1 : 0;

  core::AdoptionTally& adoption = p.tallies.adoption;
  adoption.observation_days = 30;
  adoption.consumed = 777;
  adoption.daily_counts = {3, 5, 8, 13};
  adoption.ever_registered = 21;
  adoption.ever_transacted = 17;
  adoption.first_week = 9;
  adoption.last_week = 12;
  adoption.both_weeks = 6;

  core::ActivityTally& activity = p.tallies.activity;
  activity.observation_days = 30;
  activity.detailed_start_day = 23;
  for (trace::UserId user = 900; user < 904; ++user) {
    core::ActivityTally::UserActivity& act = activity.users[user];
    for (int day = 23; day < 23 + static_cast<int>(user % 3) + 1; ++day) {
      act.day_hours[day] = {static_cast<int>(user % 24), 7, 19};
      act.hour_txns[day * 24 + 7] = 2.0 + static_cast<double>(user % 5);
      act.hour_bytes[day * 24 + 7] = 1500.5 * static_cast<double>(user % 4);
    }
    activity.first_seen[user] = user * 3;
  }
  activity.txn_sizes = {512.0, 1024.0, 98304.25};

  live::AppTally& apps = p.tallies.apps;
  for (std::size_t c = 0; c < apps.class_txns.size(); ++c) {
    apps.class_txns[c] = 10 + c;
  }
  for (appdb::AppId app = 1; app <= 3; ++app) {
    apps.apps[app] = {app * 100, app * 4096, app * 7, app};
  }

  live::SectorTally& sectors = p.tallies.sectors;
  for (trace::SectorId s = 11; s <= 13; ++s) {
    sectors.sectors[s] = {s * 10, s, s / 2, s * 3, 4, 2};
  }

  if (sketch) {
    live::SketchTally& tally = p.tallies.sketch;
    tally.enabled = true;
    for (std::uint64_t u = 900; u < 904; ++u) {
      tally.registered_users.add(u);
      if (u % 2 == 0) tally.transacting_users.add(u);
    }
    for (const double size : activity.txn_sizes) tally.txn_sizes.add(size);
    tally.apps.add("weather", 40);
    tally.apps.add("fitness", 25);
    tally.apps.add("voice", 5);
  }

  p.feed_quarantine.corrupt_blocks = 2;
  p.feed_quarantine.duplicates = 5;
  p.feed_quarantine.reordered = 3;
  p.feed_quarantine.dropped_after_retry = 1;
  return p;
}

// v1 and v2 are read-only: these pin the checked-in fixtures to the bytes
// the deleted writers produced for fixed_store(), which is what proves
// where the fixtures came from.
TEST(CodecGolden, V1LogBytesArePinned) {
  expect_bundle_files(testing::legacy_dir() / "v1",
                      {{2452, 0xc955396d},
                       {758, 0x17f79cc5},
                       {86, 0x0bf91aa2},
                       {108, 0xdda76fee}},
                      "v1");
}

TEST(CodecGolden, V2LogBytesArePinned) {
  expect_bundle_files(testing::legacy_dir() / "v2",
                      {{2464, 0xdbf47a2c},
                       {770, 0xeb62dc64},
                       {98, 0x269d6394},
                       {120, 0x2fe64d94}},
                      "v2");
}

TEST(CodecGolden, V3LogBytesArePinned) {
  const ScratchDir dir("v3");
  trace::save_bundle(testing::fixed_store(), dir.path);
  expect_bundle_files(dir.path, kV3Golden, "v3");
}

TEST(CodecGolden, LegacyFixturesResaveAsTheV3Golden) {
  // A legacy bundle loaded (at any thread count), put in canonical order
  // and saved again is the v3 golden: rewriting old captures as v3 loses
  // and reorders nothing.
  for (const char* version : {"v1", "v2"}) {
    for (const int threads : {1, 4}) {
      trace::LoadOptions load;
      load.threads = threads;
      trace::TraceStore store =
          trace::load_bundle(testing::legacy_dir() / version, load);
      store.sort_by_time();
      const std::string what =
          std::string(version) + " at " + std::to_string(threads);
      const ScratchDir dir(std::string(version) + "_t" +
                           std::to_string(threads));
      trace::save_bundle(store, dir.path);
      expect_bundle_files(dir.path, kV3Golden, what + " re-saved as v3");
    }
  }
}

TEST(CodecGolden, PartialBytesArePinnedWithoutSketch) {
  expect_golden(fed::encode_partial(fixed_partial(false)), {1413, 0x106a41d9},
                "partial, sketch off");
}

TEST(CodecGolden, PartialBytesArePinnedWithSketch) {
  expect_golden(fed::encode_partial(fixed_partial(true)),
                {271939, 0x545e3410},
                "partial, sketch on");
}

}  // namespace
}  // namespace wearscope
