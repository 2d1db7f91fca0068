// Unit tests for the v3 columnar on-disk format (trace/columnar_io):
// write/decode round trips for all four record types, dictionary coding,
// group chaining, layout probing, and bundle-level v3 save/load equality
// against v1/v2.  Hostile-input behaviour (truncation, CRC flips, dict
// damage) lives with the other fuzzers in test_fuzz_io.cpp.
#include "trace/columnar_io.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "par/task_pool.h"
#include "trace/bundle.h"
#include "trace/log_reader.h"
#include "util/error.h"

namespace wearscope::trace {
namespace {

std::vector<ProxyRecord> make_proxy(int n) {
  std::vector<ProxyRecord> rows;
  for (int i = 0; i < n; ++i) {
    ProxyRecord r;
    r.timestamp = 1000 + 7 * i;
    r.user_id = 1'000'000 + static_cast<UserId>(i % 97);
    r.tac = 35254208u + static_cast<Tac>(i % 11);
    r.protocol = i % 3 == 0 ? Protocol::kHttp : Protocol::kHttps;
    r.host = "host" + std::to_string(i % 23) + ".example.com";
    r.url_path = "/path/" + std::to_string(i);
    r.bytes_up = static_cast<std::uint64_t>(i) * 13;
    r.bytes_down = static_cast<std::uint64_t>(i) * 131 + 1;
    r.duration_ms = static_cast<std::uint32_t>(i % 5000);
    rows.push_back(std::move(r));
  }
  return rows;
}

std::vector<MmeRecord> make_mme(int n) {
  std::vector<MmeRecord> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({2000 + 3 * i, 2'000'000 + static_cast<UserId>(i % 53),
                    35254208u + static_cast<Tac>(i % 7),
                    static_cast<MmeEvent>(i % 4),
                    static_cast<SectorId>(i % 19)});
  }
  return rows;
}

/// Writes `records` as a v3 log and decodes the body back (optionally on
/// a pool), asserting zero corruption.
template <typename Record>
std::vector<Record> v3_round_trip(const std::vector<Record>& records,
                                  int threads = 1,
                                  BlockWriterOptions wopt = {}) {
  std::stringstream buf;
  const ColumnarWriteInfo info = write_columnar_log(buf, records, wopt);
  EXPECT_EQ(info.records, records.size());
  const std::string data = buf.str();
  const std::span<const std::byte> bytes(
      reinterpret_cast<const std::byte*>(data.data()), data.size());

  LogDecode<Record> decode(bytes.subspan(8), kBinaryFormatV3,
                           /*lenient=*/false);
  EXPECT_EQ(decode.total_records(), records.size());
  std::vector<Record> out;
  std::vector<std::function<void()>> batch;
  decode.schedule(out, batch);
  if (threads > 1) {
    par::TaskPool pool(threads);
    pool.run(std::move(batch));
  } else {
    for (const auto& task : batch) task();
  }
  EXPECT_FALSE(decode.finalize(out).any());
  return out;
}

TEST(ColumnarIo, ProxyRoundTrip) {
  const std::vector<ProxyRecord> in = make_proxy(1000);
  EXPECT_EQ(v3_round_trip(in), in);
}

TEST(ColumnarIo, MmeRoundTrip) {
  const std::vector<MmeRecord> in = make_mme(1000);
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
  EXPECT_TRUE(v3_round_trip(std::vector<ProxyRecord>{}).empty());
}

TEST(ColumnarIo, ThreadCountDoesNotChangeTheDecode) {
  const std::vector<ProxyRecord> in = make_proxy(5000);
  for (int threads : {1, 2, 4, 8}) {
    EXPECT_EQ(v3_round_trip(in, threads), in) << "threads=" << threads;
  }
}

TEST(ColumnarIo, SmallGroupsChainCorrectly) {
  // Force many row groups; every group must decode independently (the
  // timestamp deltas restart per group).
  BlockWriterOptions wopt;
  wopt.max_block_records = 17;
  const std::vector<ProxyRecord> in = make_proxy(400);
  EXPECT_EQ(v3_round_trip(in, 4, wopt), in);
}

TEST(ColumnarIo, HeaderSaysVersionThree) {
  std::stringstream buf;
  (void)write_columnar_log(buf, make_proxy(3));
  const std::string data = buf.str();
  ASSERT_GE(data.size(), 8u);
  std::uint16_t version = 0;
  std::memcpy(&version, data.data() + 4, 2);
  EXPECT_EQ(version, kBinaryFormatV3);
}

TEST(ColumnarIo, DictionariesAreFirstAppearanceAndShared) {
  const std::vector<ProxyRecord> in = make_proxy(200);
  std::stringstream buf;
  (void)write_columnar_log(buf, in);
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
  const std::vector<ProxyRecord> in = make_proxy(500);
  std::stringstream buf;
  (void)write_columnar_log(buf, in);
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
  store.proxy = make_proxy(800);
  store.mme = make_mme(800);
  store.devices = {{35254208u, "Gear S3 frontier LTE", "Samsung", "Tizen"}};
  store.sectors = {{7, {40.1, -3.6}}};
  store.sort_by_time();

  const std::filesystem::path base =
      std::filesystem::temp_directory_path() / "wearscope_v3_bundle_test";
  std::filesystem::remove_all(base);

  TraceStore loaded[3];
  for (std::uint16_t version : {1, 2, 3}) {
    const std::filesystem::path dir = base / ("v" + std::to_string(version));
    save_bundle(store, dir, BundleFormat::kBinary, version);
    LoadOptions lopt;
    lopt.threads = 4;
    loaded[version - 1] = load_bundle(dir, lopt);
  }
  for (int v = 0; v < 3; ++v) {
    EXPECT_EQ(loaded[v].proxy, store.proxy) << "v" << (v + 1);
    EXPECT_EQ(loaded[v].mme, store.mme) << "v" << (v + 1);
    EXPECT_EQ(loaded[v].devices, store.devices) << "v" << (v + 1);
    EXPECT_EQ(loaded[v].sectors, store.sectors) << "v" << (v + 1);
  }
  std::filesystem::remove_all(base);
}

TEST(ColumnarIo, AuditReportsColumnarLayout) {
  TraceStore store;
  store.proxy = make_proxy(300);
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

}  // namespace
}  // namespace wearscope::trace
