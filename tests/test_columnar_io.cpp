// Unit tests for the v3 columnar on-disk format (trace/columnar_io):
// write/decode round trips for all four record types, dictionary coding,
// group chaining, layout probing, and bundle-level v3 save/load equality
// with the legacy v1/v2 fixtures.  Hostile-input behaviour (truncation, CRC flips, dict
// damage) lives with the other fuzzers in test_fuzz_io.cpp.
#include "trace/columnar_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <unistd.h>
#include <vector>

#include "core/pipeline.h"
#include "legacy_fixtures.h"
#include "par/task_pool.h"
#include "simnet/simulator.h"
#include "test_support.h"
#include "trace/bundle.h"
#include "trace/log_reader.h"
#include "util/byte_codec.h"
#include "util/crc32.h"
#include "util/error.h"

namespace wearscope::trace {
namespace {

/// `n` proxy rows whose strings are interned into `pools` in row order
/// (so `pools` is canonical over them).
Rows<ProxyRecord> make_proxy(int n, ProxyPools& pools) {
  Rows<ProxyRecord> rows;
  for (int i = 0; i < n; ++i) {
    ProxyRecord r;
    r.timestamp = 1000 + 7 * i;
    r.user_id = 1'000'000 + static_cast<UserId>(i % 97);
    r.tac = 35254208u + static_cast<Tac>(i % 11);
    r.protocol = i % 3 == 0 ? Protocol::kHttp : Protocol::kHttps;
    testing::set_strings(r, pools,
                         "host" + std::to_string(i % 23) + ".example.com",
                         "/path/" + std::to_string(i));
    r.bytes_up = static_cast<std::uint64_t>(i) * 13;
    r.bytes_down = static_cast<std::uint64_t>(i) * 131 + 1;
    r.duration_ms = static_cast<std::uint32_t>(i % 5000);
    rows.push_back(std::move(r));
  }
  return rows;
}

Rows<MmeRecord> make_mme(int n) {
  Rows<MmeRecord> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({2000 + 3 * i, 2'000'000 + static_cast<UserId>(i % 53),
                    35254208u + static_cast<Tac>(i % 7),
                    static_cast<MmeEvent>(i % 4),
                    static_cast<SectorId>(i % 19)});
  }
  return rows;
}

/// Writes `records` (ids resolving through `pools`, which must be
/// canonical over them) as a v3 log and decodes the body back (optionally
/// on a pool) into fresh pools, asserting zero corruption and that the
/// fresh pools equal `pools`.
template <typename Records>
auto v3_round_trip(const Records& records, const ProxyPools& pools = {},
                   int threads = 1,
                   std::size_t group_records = kRowGroupRecords) {
  using Record = typename Records::value_type;
  std::stringstream buf;
  const ColumnarWriteInfo info =
      write_columnar_log(buf, records, pools, group_records);
  EXPECT_EQ(info.records, records.size());
  const std::string data = buf.str();
  const std::span<const std::byte> bytes(
      reinterpret_cast<const std::byte*>(data.data()), data.size());

  LogDecode<Record> decode(bytes.subspan(8), kBinaryFormatV3,
                           /*lenient=*/false);
  EXPECT_EQ(decode.total_records(), records.size());
  Rows<Record> out;
  std::vector<std::function<void()>> batch;
  decode.schedule(out, batch);
  if (threads > 1) {
    par::TaskPool pool(threads);
    pool.run(std::move(batch));
  } else {
    for (const auto& task : batch) task();
  }
  ProxyPools got;
  EXPECT_FALSE(decode.finalize(out, got).any());
  EXPECT_EQ(got, pools);
  return out;
}

TEST(ColumnarIo, ProxyRoundTrip) {
  ProxyPools pools;
  const Rows<ProxyRecord> in = make_proxy(1000, pools);
  EXPECT_EQ(v3_round_trip(in, pools), in);
}

TEST(ColumnarIo, MmeRoundTrip) {
  const Rows<MmeRecord> in = make_mme(1000);
  EXPECT_EQ(v3_round_trip(in), in);
}

TEST(ColumnarIo, DeviceAndSectorRoundTrip) {
  const std::vector<DeviceRecord> devices = {
      {35254208u, "Gear S3 frontier LTE", "Samsung", "Tizen"},
      {35332008u, "iPhone 7", "Apple", "iOS"},
  };
  EXPECT_EQ(v3_round_trip(devices), devices);
  const std::vector<SectorInfo> sectors = {
      {7, {40.123456, -3.654321}},
      {8, {40.2, -3.7}},
  };
  EXPECT_EQ(v3_round_trip(sectors), sectors);
}

TEST(ColumnarIo, EmptyLogRoundTrips) {
  EXPECT_TRUE(v3_round_trip(Rows<ProxyRecord>{}).empty());
}

TEST(ColumnarIo, ThreadCountDoesNotChangeTheDecode) {
  ProxyPools pools;
  const Rows<ProxyRecord> in = make_proxy(5000, pools);
  for (int threads : {1, 2, 4, 8}) {
    EXPECT_EQ(v3_round_trip(in, pools, threads), in) << "threads=" << threads;
  }
}

TEST(ColumnarIo, SmallGroupsChainCorrectly) {
  // Force many row groups; every group must decode independently (the
  // timestamp deltas restart per group).
  ProxyPools pools;
  const Rows<ProxyRecord> in = make_proxy(400, pools);
  EXPECT_EQ(v3_round_trip(in, pools, 4, 17), in);
}

TEST(ColumnarIo, HeaderSaysVersionThree) {
  std::stringstream buf;
  ProxyPools pools;
  (void)write_columnar_log(buf, make_proxy(3, pools), pools);
  const std::string data = buf.str();
  ASSERT_GE(data.size(), 8u);
  std::uint16_t version = 0;
  std::memcpy(&version, data.data() + 4, 2);
  EXPECT_EQ(version, kBinaryFormatV3);
}

TEST(ColumnarIo, DictionariesAreFirstAppearanceAndShared) {
  ProxyPools pools;
  const Rows<ProxyRecord> in = make_proxy(200, pools);
  std::stringstream buf;
  (void)write_columnar_log(buf, in, pools);
  const std::string data = buf.str();
  const std::span<const std::byte> bytes(
      reinterpret_cast<const std::byte*>(data.data()), data.size());
  LogDecode<ProxyRecord> decode(bytes.subspan(8), kBinaryFormatV3, false);
  const ColumnDicts& dicts = decode.dicts();
  // 23 distinct hosts, 11 distinct TACs, in first-appearance order.
  ASSERT_EQ(dicts.hosts.size(), 23u);
  ASSERT_EQ(dicts.tacs.size(), 11u);
  EXPECT_EQ(dicts.hosts[0], "host0.example.com");
  EXPECT_EQ(dicts.hosts[1], "host1.example.com");
  EXPECT_EQ(dicts.tacs[0], 35254208u);
  EXPECT_TRUE(dicts.sectors.empty());  // proxy logs carry no sectors
}

TEST(ColumnarIo, ScanSkipsImpossibleGroupHeader) {
  // record_count > byte_length is impossible (>= 1 byte per record per
  // column); the scan must skip the frame and keep going.
  std::stringstream buf;
  (void)write_columnar_log(buf, make_mme(10));
  std::string data = buf.str();
  const std::span<const std::byte> whole(
      reinterpret_cast<const std::byte*>(data.data()), data.size());
  LogDecode<MmeRecord> probe(whole.subspan(8), kBinaryFormatV3, false);
  ASSERT_EQ(probe.index().units.size(), 1u);

  // The group chain starts after the header + 3 dict sections; corrupt
  // the record_count to something absurd.
  const std::size_t chain_off =
      data.size() - (kGroupHeaderBytes + probe.index().units[0].byte_length);
  const std::uint32_t absurd = 0xffffffffu;
  std::memcpy(data.data() + chain_off, &absurd, 4);
  const std::span<const std::byte> bytes(
      reinterpret_cast<const std::byte*>(data.data()), data.size());
  const LogDecode<MmeRecord> decode(bytes.subspan(8), kBinaryFormatV3, true);
  EXPECT_EQ(decode.index().corrupt_blocks, 1u);
  EXPECT_EQ(decode.index().total_records, 0u);
  // Strict mode refuses the same damage loudly.
  EXPECT_THROW(LogDecode<MmeRecord>(bytes.subspan(8), kBinaryFormatV3, false),
               util::ParseError);
}

TEST(ColumnarIo, ProbeLayoutCountsDictsAndColumns) {
  ProxyPools pools;
  const Rows<ProxyRecord> in = make_proxy(500, pools);
  std::stringstream buf;
  (void)write_columnar_log(buf, in, pools);
  const std::string data = buf.str();
  const std::span<const std::byte> bytes(
      reinterpret_cast<const std::byte*>(data.data()), data.size());
  const ColumnarLayoutInfo layout =
      probe_columnar_layout<ProxyRecord>(bytes.subspan(8));
  EXPECT_EQ(layout.records, 500u);
  EXPECT_GE(layout.groups, 1u);
  EXPECT_EQ(layout.dict_hosts, 23u);
  EXPECT_EQ(layout.dict_tacs, 11u);
  EXPECT_EQ(layout.dict_sectors, 0u);
  EXPECT_GT(layout.dict_bytes, 0u);
  ASSERT_EQ(layout.column_bytes.size(), columnar_column_count<ProxyRecord>());
  std::uint64_t payload = 0;
  for (const std::uint64_t b : layout.column_bytes) {
    EXPECT_GT(b, 0u);
    payload += b;
  }
  // Compressed payload must be well under the raw row encoding; the
  // repetitive columns (hosts, TACs) shrink to ~1 byte per record.
  EXPECT_LT(payload, data.size());
}

TEST(ColumnarIo, BundleRoundTripsAcrossAllThreeVersions) {
  TraceStore store;
  store.proxy = make_proxy(800, store);
  store.mme = make_mme(800);
  store.devices = {{35254208u, "Gear S3 frontier LTE", "Samsung", "Tizen"}};
  store.sectors = {{7, {40.1, -3.6}}};
  store.sort_by_time();

  const std::filesystem::path base =
      std::filesystem::temp_directory_path() /
      ("wearscope_v3_bundle_test_" + std::to_string(::getpid()));
  std::filesystem::remove_all(base);
  LoadOptions lopt;
  lopt.threads = 4;
  const auto expect_same = [](const TraceStore& got, const TraceStore& want,
                              const std::string& what) {
    EXPECT_EQ(got.proxy, want.proxy) << what;
    EXPECT_EQ(static_cast<const ProxyPools&>(got),
              static_cast<const ProxyPools&>(want))
        << what;
    EXPECT_EQ(got.mme, want.mme) << what;
    EXPECT_EQ(got.devices, want.devices) << what;
    EXPECT_EQ(got.sectors, want.sectors) << what;
  };
  save_bundle(store, base / "v3", BundleFormat::kBinary, kBinaryFormatV3);
  expect_same(load_bundle(base / "v3", lopt), store, "v3");
  // v1 and v2 are read-only: their fixtures load as the store they hold
  // (CodecGolden.LegacyFixturesResaveAsTheV3Golden saves it as v3).
  const TraceStore fixed = testing::fixed_store();
  for (const char* version : {"v1", "v2"}) {
    expect_same(load_bundle(testing::legacy_dir() / version, lopt), fixed,
                version);
  }
  std::filesystem::remove_all(base);
}

TEST(ColumnarIo, SaveBundleWritesOnlyV3) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("wearscope_v3_only_" + std::to_string(::getpid()));
  for (const std::uint16_t version : {kBinaryFormatV1, kBinaryFormatV2,
                                      std::uint16_t{4}}) {
    EXPECT_THROW(save_bundle(testing::fixed_store(), dir,
                             BundleFormat::kBinary, version),
                 util::ConfigError)
        << version;
  }
  std::filesystem::remove_all(dir);
}

TEST(ColumnarIo, AuditReportsColumnarLayout) {
  TraceStore store;
  store.proxy = make_proxy(300, store);
  store.mme = make_mme(300);
  store.devices = {{35254208u, "Gear S3 frontier LTE", "Samsung", "Tizen"}};
  store.sectors = {{7, {40.1, -3.6}}};
  store.sort_by_time();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "wearscope_v3_audit_test";
  std::filesystem::remove_all(dir);
  save_bundle(store, dir, BundleFormat::kBinary, kBinaryFormatV3);

  const std::vector<BundleLogAudit> audits = audit_bundle(dir);
  ASSERT_EQ(audits.size(), 4u);
  for (const BundleLogAudit& audit : audits) {
    EXPECT_EQ(audit.version, kBinaryFormatV3) << audit.stem;
    EXPECT_FALSE(audit.columnar.column_bytes.empty()) << audit.stem;
    EXPECT_EQ(audit.columnar.records, audit.records) << audit.stem;
  }
  std::filesystem::remove_all(dir);
}

// ---- Pool invariants at the file boundary ---------------------------------

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::filesystem::path& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
}

std::span<const std::byte> as_bytes_of(const std::string& data) {
  return std::as_bytes(std::span<const char>(data.data(), data.size()));
}

/// Overwrites host dictionary entry `index` of a whole v3 log with
/// `replacement` (same length) and re-seals the section CRC.
void patch_host_entry(std::string& log, std::uint32_t index,
                      const std::string& replacement) {
  constexpr std::size_t kPayload = 8 + kDictHeaderBytes;
  util::MemorySpanDecoder header(as_bytes_of(log).subspan(8, 12));
  (void)header.get_u32();  // entry_count
  const std::uint32_t byte_length = header.get_u32();
  std::size_t at = kPayload;
  for (std::uint32_t i = 0; i < index; ++i) {
    util::MemorySpanDecoder len(as_bytes_of(log).subspan(at, 2));
    at += 2 + len.get_u16();
  }
  util::MemorySpanDecoder len(as_bytes_of(log).subspan(at, 2));
  ASSERT_EQ(len.get_u16(), replacement.size());
  log.replace(at + 2, replacement.size(), replacement);
  std::string crc;
  util::BufferEncoder enc(crc);
  enc.put_u32(util::crc32(as_bytes_of(log).subspan(kPayload, byte_length)));
  log.replace(8 + 8, 4, crc);
}

/// Byte offset of the row-group chain of a whole v3 log (after the file
/// header and the three dictionary sections).
std::size_t chain_offset(const std::string& log) {
  std::size_t at = 8;
  for (int section = 0; section < 3; ++section) {
    util::MemorySpanDecoder header(as_bytes_of(log).subspan(at, 12));
    (void)header.get_u32();
    at += kDictHeaderBytes + header.get_u32();
  }
  return at;
}

TEST(ColumnarIo, RepeatedDictionaryEntryLoadsLikeTheDeduplicatedFile) {
  simnet::SimConfig cfg = simnet::SimConfig::small();
  cfg.seed = 23;
  const simnet::SimResult sim = simnet::Simulator(cfg).run();
  const TraceStore& store = sim.store;
  // Two hosts whose names have the same length, so one can be rewritten
  // into the other in place.
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  for (std::uint32_t i = 0; i < store.hosts.size() && b == 0; ++i) {
    for (std::uint32_t j = i + 1; j < store.hosts.size(); ++j) {
      if (store.hosts[i].size() == store.hosts[j].size()) {
        a = i;
        b = j;
        break;
      }
    }
  }
  ASSERT_NE(b, 0u);
  // The file without the repeat: b's rows name a's host.
  TraceStore merged = store;
  for (ProxyRecord& r : merged.proxy) {
    if (r.host_id == b) r.host_id = a;
  }
  merged.sort_by_time();
  ASSERT_EQ(merged.hosts.size() + 1, store.hosts.size());

  const std::filesystem::path base =
      std::filesystem::temp_directory_path() /
      ("wearscope_v3_repeat_" + std::to_string(::getpid()));
  std::filesystem::remove_all(base);
  save_bundle(merged, base / "dedup", BundleFormat::kBinary, kBinaryFormatV3);
  // The file with the repeat: the original, whose dictionary lists hosts
  // in pool order, with entry b renamed to a's name.  Rows still name
  // both entries.
  save_bundle(store, base / "repeat", BundleFormat::kBinary, kBinaryFormatV3);
  std::string log = read_file(base / "repeat" / "proxy.bin");
  patch_host_entry(log, b, store.hosts[a]);
  write_file(base / "repeat" / "proxy.bin", log);

  core::AnalysisOptions opt;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.detailed_start_day;
  opt.long_tail_apps = cfg.long_tail_apps;
  std::string report;
  // Every thread count: each unit's rows are rewritten by a task of their
  // own, through the unit's table and the file's shared host table.
  for (const int threads : {1, 2, 3, 4, 8}) {
    LoadOptions lopt;
    lopt.threads = threads;
    TraceStore dedup = load_bundle(base / "dedup", lopt);
    TraceStore repeat = load_bundle(base / "repeat", lopt);
    dedup.sort_by_time();
    repeat.sort_by_time();
    EXPECT_EQ(repeat.hosts, dedup.hosts) << threads;
    EXPECT_EQ(repeat.paths, dedup.paths) << threads;
    EXPECT_EQ(repeat.proxy, dedup.proxy) << threads;
    // Every row's host id agrees too, so the analyses see one host where
    // the file listed it twice.
    ASSERT_EQ(repeat.proxy.size(), dedup.proxy.size());
    for (std::size_t i = 0; i < repeat.proxy.size(); ++i) {
      ASSERT_EQ(repeat.proxy[i].host_id, dedup.proxy[i].host_id)
          << "row " << i << ", " << threads << " threads";
    }
    const std::string text = core::Pipeline(repeat, opt).run().to_text();
    EXPECT_EQ(text, core::Pipeline(dedup, opt).run().to_text()) << threads;
    if (report.empty()) report = text;
    EXPECT_EQ(text, report) << threads;
  }
  std::filesystem::remove_all(base);
}

TEST(ColumnarIo, QuarantinedGroupLeavesNoUnusedPoolEntry) {
  // Three row groups under the default writer options; the host and the
  // paths of the middle group appear nowhere else.
  TraceStore store;
  const int group = static_cast<int>(kRowGroupRecords);
  for (int i = 0; i < 3 * group; ++i) {
    ProxyRecord r;
    r.timestamp = i;
    r.user_id = 1'000'000 + static_cast<UserId>(i % 97);
    r.tac = 35254208u;
    const bool middle = i >= group && i < 2 * group;
    testing::set_strings(r, store,
                         middle ? "lost.example" : "kept.example",
                         middle ? "/lost/" + std::to_string(i % 7) : "/kept");
    store.proxy.push_back(r);
  }
  store.mme = make_mme(10);
  store.sort_by_time();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("wearscope_v3_quarantine_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  save_bundle(store, dir, BundleFormat::kBinary, kBinaryFormatV3);

  // Flip one payload byte of the middle group: its column CRC fails.
  std::string log = read_file(dir / "proxy.bin");
  const std::size_t chain = chain_offset(log);
  const UnitIndex index =
      scan_units(as_bytes_of(log).subspan(chain), kBinaryFormatV3, true);
  ASSERT_EQ(index.units.size(), 3u);
  log[chain + index.units[1].payload_offset + kColumnHeaderBytes] ^= 0x01;
  write_file(dir / "proxy.bin", log);

  for (const int threads : {1, 4}) {
    QuarantineStats q;
    LoadOptions lopt;
    lopt.threads = threads;
    const TraceStore loaded = load_bundle(dir, q, lopt);
    EXPECT_EQ(q.corrupt_blocks, 1u) << threads;
    EXPECT_EQ(loaded.proxy.size(), 2u * static_cast<std::size_t>(group));
    EXPECT_TRUE(pools_canonical(loaded.proxy, loaded)) << threads;
    EXPECT_EQ(loaded.hosts.strings(),
              std::vector<std::string>{"kept.example"})
        << threads;
    EXPECT_EQ(loaded.paths.strings(), std::vector<std::string>{"/kept"})
        << threads;
  }
  std::filesystem::remove_all(dir);
}

/// One proxy row with its host and path spelled out, so rows of stores
/// whose pools number the strings differently compare by content.
using SpelledProxy =
    std::tuple<util::SimTime, UserId, Tac, Protocol, std::string, std::string,
               std::uint64_t, std::uint64_t, std::uint32_t>;

std::vector<SpelledProxy> spelled(const TraceStore& store) {
  std::vector<SpelledProxy> rows;
  for (const ProxyRecord& r : store.proxy) {
    rows.emplace_back(r.timestamp, r.user_id, r.tac, r.protocol,
                      store.hosts[r.host_id], store.paths[r.path_id],
                      r.bytes_up, r.bytes_down, r.duration_ms);
  }
  return rows;
}

/// `rows` without the rows of the units listed in `lost`, for units of
/// `unit` rows each.
template <typename Row>
std::vector<Row> without_units(const std::vector<Row>& rows, std::size_t unit,
                               std::initializer_list<std::size_t> lost) {
  std::vector<Row> kept;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (std::find(lost.begin(), lost.end(), i / unit) == lost.end())
      kept.push_back(rows[i]);
  }
  return kept;
}

/// Flips one payload byte of each listed row group of the whole v3 log at
/// `path`: the group's first column CRC fails.
void corrupt_groups(const std::filesystem::path& path,
                    std::initializer_list<std::size_t> groups) {
  std::string log = read_file(path);
  const std::size_t chain = chain_offset(log);
  const UnitIndex index = scan_units(as_bytes_of(log).subspan(chain),
                                     kBinaryFormatV3, /*lenient=*/true);
  for (const std::size_t g : groups) {
    ASSERT_LT(g, index.units.size());
    log[chain + index.units[g].payload_offset + kColumnHeaderBytes] ^= 0x01;
  }
  write_file(path, log);
}

TEST(ColumnarIo, LenientLoadKeepsNoUnwrittenRow) {
  // The loader sizes the event logs without writing them; each decode
  // task is the first writer of its group's rows.  A group that fails
  // leaves its slice unwritten, so the load must drop exactly those rows:
  // the first, a middle and the last proxy group and one MME group here.
  const std::size_t group = kRowGroupRecords;
  TraceStore store;
  store.proxy = make_proxy(static_cast<int>(5 * group), store);
  store.mme = make_mme(static_cast<int>(3 * group));
  ASSERT_TRUE(store.is_sorted());
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("wearscope_v3_unwritten_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  save_bundle(store, dir, BundleFormat::kBinary, kBinaryFormatV3);
  const TraceStore clean = load_bundle(dir);
  ASSERT_EQ(clean.proxy.size(), 5 * group);
  const std::vector<SpelledProxy> proxy_kept =
      without_units(spelled(clean), group, {0, 2, 4});
  const std::vector<MmeRecord> mme_kept = without_units(
      std::vector<MmeRecord>(clean.mme.begin(), clean.mme.end()), group, {1});
  corrupt_groups(dir / "proxy.bin", {0, 2, 4});
  corrupt_groups(dir / "mme.bin", {1});

  for (const int threads : {1, 2, 3, 4, 8}) {
    QuarantineStats q;
    LoadOptions lopt;
    lopt.threads = threads;
    const TraceStore loaded = load_bundle(dir, q, lopt);
    QuarantineStats expected;
    expected.corrupt_blocks = 4;
    EXPECT_EQ(q, expected) << threads;
    EXPECT_EQ(spelled(loaded), proxy_kept) << threads;
    EXPECT_TRUE(std::equal(loaded.mme.begin(), loaded.mme.end(),
                           mme_kept.begin(), mme_kept.end()))
        << threads;
    EXPECT_TRUE(pools_canonical(loaded.proxy, loaded)) << threads;
    EXPECT_TRUE(loaded.is_sorted()) << threads;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace wearscope::trace
