// Golden bytes of every binary writer: the v1/v2/v3 trace logs of a fixed
// record set and the WSFD encoding of a fixed partial snapshot, pinned by
// size and CRC32.  Round-trip tests cannot see a layout change that the
// writer and reader make together; these constants can.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>

#include "fed/partial_io.h"
#include "trace/bundle.h"
#include "util/crc32.h"
#include "test_support.h"

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

trace::TraceStore fixed_store() {
  trace::TraceStore store;
  for (std::uint32_t i = 0; i < 40; ++i) {
    trace::ProxyRecord r;
    r.timestamp = static_cast<util::SimTime>(1000 + i * 37);
    r.user_id = 1'000'000 + i % 7;
    r.tac = 35254208 + i % 3;
    r.protocol = i % 2 == 0 ? trace::Protocol::kHttps : trace::Protocol::kHttp;
    testing::set_strings(r, store, "host" + std::to_string(i % 5) + ".example",
                         i % 3 == 0 ? "" : "/p/" + std::to_string(i));
    r.bytes_up = i * 11;
    r.bytes_down = i * 101 + 1;
    r.duration_ms = i + 1;
    store.proxy.push_back(r);
  }
  for (std::uint32_t i = 0; i < 30; ++i) {
    store.mme.push_back({static_cast<util::SimTime>(500 + i * 60),
                         1'000'000 + i % 6, 35254208 + i % 2,
                         static_cast<trace::MmeEvent>(i % 4), 1 + i % 5});
  }
  store.devices.push_back({35254208, "Gear S3 frontier LTE", "Samsung",
                           "Tizen"});
  store.devices.push_back({35254209, "Watch Series 3", "Apple", "watchOS"});
  for (std::uint32_t s = 1; s <= 5; ++s) {
    store.sectors.push_back({s, {40.0 + s * 0.125, -3.5 - s * 0.25}});
  }
  return store;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Saves the fixed store at `version` and checks each log's bytes.
void expect_bundle_golden(std::uint16_t version, const Golden (&want)[4]) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("wearscope_codec_golden_v" + std::to_string(version) + "_" +
       std::to_string(::getpid()));
  trace::save_bundle(fixed_store(), dir, trace::BundleFormat::kBinary,
                     version);
  const char* stems[] = {"proxy", "mme", "devices", "sectors"};
  for (int i = 0; i < 4; ++i) {
    expect_golden(slurp(dir / (std::string(stems[i]) + ".bin")), want[i],
                  "v" + std::to_string(version) + " " + stems[i]);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

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

TEST(CodecGolden, V1LogBytesArePinned) {
  expect_bundle_golden(1, {{2452, 0xc955396d},
                           {758, 0x17f79cc5},
                           {86, 0x0bf91aa2},
                           {108, 0xdda76fee}});
}

TEST(CodecGolden, V2LogBytesArePinned) {
  expect_bundle_golden(2, {{2464, 0xdbf47a2c},
                           {770, 0xeb62dc64},
                           {98, 0x269d6394},
                           {120, 0x2fe64d94}});
}

TEST(CodecGolden, V3LogBytesArePinned) {
  expect_bundle_golden(3, {{882, 0x0410527b},
                           {331, 0x6dd4ff31},
                           {162, 0xb134175a},
                           {161, 0x6106878d}});
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
