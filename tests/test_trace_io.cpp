// Unit tests for trace serialization and bundle persistence: the legacy
// v1/v2 readers against the checked-in fixtures (legacy_fixtures.h), CSV
// round trips, and bundle save/load/audit.
#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>

#include <gtest/gtest.h>

#include "chaos/fault_plan.h"
#include "par/task_pool.h"
#include "trace/bundle.h"
#include "trace/csv_io.h"
#include "trace/log_reader.h"
#include "util/byte_codec.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/mapped_file.h"
#include "legacy_fixtures.h"
#include "test_support.h"

namespace wearscope::trace {
namespace {

using testing::set_strings;

/// The pools the free-standing proxy rows of this file intern into.  The
/// CSV round trips below decode into the same pools, so a string read back
/// maps to the id it was written with and rows compare equal id for id.
ProxyPools& sample_pools() {
  static ProxyPools pools;
  return pools;
}

/// A sample proxy row without strings.
ProxyRecord sample_fields() {
  ProxyRecord r;
  r.timestamp = 123456;
  r.user_id = 1'000'042;
  r.tac = 35254208;
  r.protocol = Protocol::kHttp;
  r.bytes_up = 512;
  r.bytes_down = 4096;
  r.duration_ms = 250;
  return r;
}

ProxyRecord sample_proxy(ProxyPools& pools = sample_pools()) {
  ProxyRecord r = sample_fields();
  set_strings(r, pools, "api.weather.com", "/v1/forecast?loc=x,y");
  return r;
}

MmeRecord sample_mme() {
  return MmeRecord{98765, 1'000'001, 35909306, MmeEvent::kHandover, 42};
}

DeviceRecord sample_device() {
  return DeviceRecord{35254208, "Gear S3 frontier LTE", "Samsung", "Tizen"};
}

SectorInfo sample_sector() {
  return SectorInfo{7, {40.123456, -3.654321}};
}

std::span<const std::byte> blob_bytes(const std::string& blob) {
  return std::as_bytes(std::span<const char>(blob.data(), blob.size()));
}

// ---------------------------------------------------------------------------
// Legacy binary logs (v1 and v2): read-only, read from the fixtures.  Each
// fixture holds testing::fixed_store(), whose pools are canonical, so a
// read into fresh pools must give its rows id for id and its pools.
// ---------------------------------------------------------------------------

using testing::fixed_store;
using testing::legacy_dir;
using testing::slurp;

/// The thread counts every fixture read and load runs at.
constexpr int kThreadCounts[] = {1, 2, 3, 4, 8};

/// `Record`'s log in `store`, and the file that holds it in a bundle.
template <typename Record>
const Rows<Record>& log_of(const TraceStore& store) {
  if constexpr (std::is_same_v<Record, ProxyRecord>) return store.proxy;
  else if constexpr (std::is_same_v<Record, MmeRecord>) return store.mme;
  else if constexpr (std::is_same_v<Record, DeviceRecord>)
    return store.devices;
  else return store.sectors;
}
template <typename Record>
std::string file_of() {
  if constexpr (std::is_same_v<Record, ProxyRecord>) return "proxy.bin";
  else if constexpr (std::is_same_v<Record, MmeRecord>) return "mme.bin";
  else if constexpr (std::is_same_v<Record, DeviceRecord>)
    return "devices.bin";
  else return "sectors.bin";
}

/// Reads `bytes` as a `Record` log into fresh pools at every thread count;
/// each read must give fixed_store()'s rows and (for proxy logs) pools.
template <typename Record>
void expect_fixed_rows(const std::string& bytes, const std::string& what) {
  const TraceStore want = fixed_store();
  for (const int threads : kThreadCounts) {
    par::TaskPool pool(static_cast<std::size_t>(threads));
    ProxyPools pools;
    EXPECT_EQ(read_binary_log<Record>(blob_bytes(bytes), pools, &pool),
              log_of<Record>(want))
        << what << " at " << threads << " threads";
    if constexpr (!PoolFree<Record>) {
      EXPECT_EQ(pools, static_cast<const ProxyPools&>(want))
          << what << " at " << threads << " threads";
    }
  }
}

/// The fixture log of `Record` in legacy directory `dir`.
template <typename Record>
std::string fixture(const std::string& dir) {
  return slurp(legacy_dir() / dir / file_of<Record>());
}

TEST(BinaryIo, ProxyRoundTrip) {
  // Also the order check: 40 records, every field and both strings.
  expect_fixed_rows<ProxyRecord>(fixture<ProxyRecord>("v1"), "v1 proxy");
}

TEST(BinaryIo, MmeRoundTrip) {
  expect_fixed_rows<MmeRecord>(fixture<MmeRecord>("v1"), "v1 mme");
}

TEST(BinaryIo, DeviceRoundTrip) {
  expect_fixed_rows<DeviceRecord>(fixture<DeviceRecord>("v1"), "v1 devices");
}

TEST(BinaryIo, SectorRoundTrip) {
  expect_fixed_rows<SectorInfo>(fixture<SectorInfo>("v1"), "v1 sectors");
}

TEST(BinaryIo, ManyRecordsPreserveOrder) {
  // v1 has no framing: a log cut on a record boundary reads as the records
  // before the cut, in order.  chaos::image_of finds the boundaries.
  const chaos::BinaryImage image =
      chaos::image_of<ProxyRecord>(fixture<ProxyRecord>("v1"));
  ASSERT_EQ(image.record_offsets.size(), 40u);
  const Rows<ProxyRecord> all = fixed_store().proxy;
  for (std::size_t k = 0; k < image.record_offsets.size(); ++k) {
    const std::string prefix = image.bytes.substr(0, image.record_offsets[k]);
    ProxyPools pools;
    const Rows<ProxyRecord> got =
        read_binary_log<ProxyRecord>(blob_bytes(prefix), pools);
    // The pools are canonical, so a prefix's fresh ids are the full log's.
    ASSERT_EQ(got.size(), k);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), all.begin())) << k;
  }
}

TEST(BinaryIo, WrongMagicRejected) {
  const std::string mme = fixture<MmeRecord>("v1");
  EXPECT_THROW((void)read_binary_log<ProxyRecord>(blob_bytes(mme),
                                                  sample_pools()),
               util::ParseError);
}

TEST(BinaryIo, TruncatedRecordRejected) {
  std::string blob = fixture<ProxyRecord>("v1");
  blob.resize(blob.size() - 3);  // chop the tail
  EXPECT_THROW((void)read_binary_log<ProxyRecord>(blob_bytes(blob),
                                                  sample_pools()),
               util::ParseError);
}

TEST(BinaryIo, EmptyStreamRejected) {
  EXPECT_THROW((void)read_binary_log<ProxyRecord>(blob_bytes(""),
                                                  sample_pools()),
               util::ParseError);
}

TEST(BinaryIo, PrimitivesLittleEndian) {
  std::string bytes;
  util::BufferEncoder enc(bytes);
  enc.put_u32(0x01020304u);
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0x04);
  EXPECT_EQ(static_cast<unsigned char>(bytes[3]), 0x01);
  util::MemorySpanDecoder dec(blob_bytes(bytes));
  EXPECT_EQ(dec.get_u32(), 0x01020304u);
  EXPECT_TRUE(dec.at_eof());
}

TEST(BinaryIo, NegativeTimestampSurvives) {
  // The first record's timestamp, an i64 right after the 8-byte file
  // header, edited to -42.
  std::string blob = fixture<ProxyRecord>("v1");
  const auto minus_42 = static_cast<std::uint64_t>(std::int64_t{-42});
  for (std::size_t i = 0; i < 8; ++i)
    blob[8 + i] = static_cast<char>((minus_42 >> (8 * i)) & 0xff);
  ProxyPools pools;
  const Rows<ProxyRecord> got =
      read_binary_log<ProxyRecord>(blob_bytes(blob), pools);
  ASSERT_EQ(got.size(), 40u);
  EXPECT_EQ(got.front().timestamp, -42);
  EXPECT_EQ(got[1], fixed_store().proxy[1]);
}

template <typename Record>
Record csv_round_trip(const Record& in) {
  std::stringstream buf;
  {
    CsvLogWriter<Record> w(buf, sample_pools());
    w.write(in);
  }
  CsvLogReader<Record> r(buf, sample_pools());
  Record out;
  EXPECT_TRUE(r.next(out));
  Record extra;
  EXPECT_FALSE(r.next(extra));
  return out;
}

TEST(CsvIo, ProxyRoundTrip) {
  EXPECT_EQ(csv_round_trip(sample_proxy()), sample_proxy());
}

TEST(CsvIo, MmeRoundTrip) { EXPECT_EQ(csv_round_trip(sample_mme()), sample_mme()); }

TEST(CsvIo, DeviceRoundTrip) {
  EXPECT_EQ(csv_round_trip(sample_device()), sample_device());
}

TEST(CsvIo, SectorRoundTripWithPrecision) {
  const SectorInfo out = csv_round_trip(sample_sector());
  EXPECT_EQ(out.sector_id, 7u);
  EXPECT_NEAR(out.position.lat_deg, 40.123456, 1e-6);
  EXPECT_NEAR(out.position.lon_deg, -3.654321, 1e-6);
}

TEST(CsvIo, FieldWithCommaSurvives) {
  ProxyRecord r = sample_proxy();
  set_strings(r, sample_pools(), "api.weather.com", "/search?q=a,b,c");
  EXPECT_EQ(csv_round_trip(r), r);
}

TEST(CsvIo, HeaderMismatchRejected) {
  std::stringstream buf;
  { CsvLogWriter<MmeRecord> w(buf); }
  EXPECT_THROW((CsvLogReader<ProxyRecord>{buf, sample_pools()}),
               util::ParseError);
}

TEST(CsvIo, MalformedRowRejected) {
  std::stringstream buf("timestamp,user_id,tac,event,sector_id\n1,2,3\n");
  CsvLogReader<MmeRecord> r(buf);
  MmeRecord rec;
  EXPECT_THROW(r.next(rec), util::ParseError);
}

TEST(CsvIo, BadNumberRejected) {
  std::stringstream buf(
      "timestamp,user_id,tac,event,sector_id\nabc,2,3,attach,4\n");
  CsvLogReader<MmeRecord> r(buf);
  MmeRecord rec;
  EXPECT_THROW(r.next(rec), util::ParseError);
}

TEST(CsvIo, BadEventNameRejected) {
  std::stringstream buf(
      "timestamp,user_id,tac,event,sector_id\n1,2,3,flying,4\n");
  CsvLogReader<MmeRecord> r(buf);
  MmeRecord rec;
  EXPECT_THROW(r.next(rec), util::ParseError);
}

TEST(CsvIo, SkipsBlankLinesAndCrLf) {
  std::stringstream buf(
      "timestamp,user_id,tac,event,sector_id\r\n\n1,2,3,attach,4\r\n");
  CsvLogReader<MmeRecord> r(buf);
  MmeRecord rec;
  ASSERT_TRUE(r.next(rec));
  EXPECT_EQ(rec.sector_id, 4u);
}

class BundleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("wearscope_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  TraceStore make_store() {
    TraceStore s;
    s.proxy = {sample_proxy(s)};
    s.mme = {sample_mme()};
    s.devices = {sample_device()};
    s.sectors = {sample_sector()};
    return s;
  }

  std::filesystem::path dir_;
};

TEST_F(BundleTest, BinaryRoundTrip) {
  const TraceStore in = make_store();
  save_bundle(in, dir_, BundleFormat::kBinary);
  const TraceStore out = load_bundle(dir_);
  EXPECT_EQ(out.proxy, in.proxy);
  EXPECT_EQ(out.hosts, in.hosts);
  EXPECT_EQ(out.paths, in.paths);
  EXPECT_EQ(out.mme, in.mme);
  EXPECT_EQ(out.devices, in.devices);
  EXPECT_EQ(out.sectors, in.sectors);
}

TEST_F(BundleTest, CsvRoundTrip) {
  const TraceStore in = make_store();
  save_bundle(in, dir_, BundleFormat::kCsv);
  const TraceStore out = load_bundle(dir_);
  EXPECT_EQ(out.proxy, in.proxy);
  EXPECT_EQ(out.hosts, in.hosts);
  EXPECT_EQ(out.paths, in.paths);
  EXPECT_EQ(out.sectors, in.sectors);
}

TEST_F(BundleTest, MissingLogThrows) {
  save_bundle(make_store(), dir_, BundleFormat::kBinary);
  std::filesystem::remove(dir_ / "mme.bin");
  EXPECT_THROW(load_bundle(dir_), util::IoError);
}

TEST_F(BundleTest, MissingDirectoryThrows) {
  EXPECT_THROW(load_bundle(dir_ / "nonexistent"), util::IoError);
}

// ---------------------------------------------------------------------------
// Blocked v2 logs: the v2 fixtures (one block per log) and the v2_units
// fixtures (one record per block: 40 proxy and 30 MME blocks)
// ---------------------------------------------------------------------------

TEST(TraceV2, Crc32MatchesKnownVectors) {
  // The standard check value for the reflected 0xEDB88320 polynomial with
  // the zlib init/final-xor convention.
  const std::string check = "123456789";
  EXPECT_EQ(util::crc32(blob_bytes(check)), 0xCBF43926u);
  EXPECT_EQ(util::crc32({}), 0u);
  // Incremental == one-shot, across every split point (exercises both the
  // 8-byte slicing loop and the byte-at-a-time tail).
  const std::string long_input(1023, 'w');
  const std::uint32_t whole = util::crc32(blob_bytes(long_input));
  for (const std::size_t split : {std::size_t{1}, std::size_t{7},
                                  std::size_t{8}, std::size_t{500}}) {
    const std::uint32_t head =
        util::crc32_update(0, blob_bytes(long_input).subspan(0, split));
    EXPECT_EQ(util::crc32_update(head, blob_bytes(long_input).subspan(split)),
              whole)
        << "split " << split;
  }
}

TEST(TraceV2, RoundTripAllRecordTypes) {
  expect_fixed_rows<ProxyRecord>(fixture<ProxyRecord>("v2"), "v2 proxy");
  expect_fixed_rows<MmeRecord>(fixture<MmeRecord>("v2"), "v2 mme");
  expect_fixed_rows<DeviceRecord>(fixture<DeviceRecord>("v2"), "v2 devices");
  expect_fixed_rows<SectorInfo>(fixture<SectorInfo>("v2"), "v2 sectors");
}

TEST(TraceV2, MultiBlockPreservesOrderAndCounts) {
  const std::string proxy = fixture<ProxyRecord>("v2_units");
  const std::string mme = fixture<MmeRecord>("v2_units");
  expect_fixed_rows<ProxyRecord>(proxy, "v2_units proxy");
  expect_fixed_rows<MmeRecord>(mme, "v2_units mme");
  const BinaryLogInfo proxy_info =
      probe_binary_log<ProxyRecord>(blob_bytes(proxy));
  EXPECT_EQ(proxy_info.version, kBinaryFormatV2);
  EXPECT_EQ(proxy_info.blocks, 40u);
  EXPECT_EQ(proxy_info.records, 40u);
  const BinaryLogInfo mme_info = probe_binary_log<MmeRecord>(blob_bytes(mme));
  EXPECT_EQ(mme_info.blocks, 30u);
  EXPECT_EQ(mme_info.records, 30u);
}

TEST(TraceV2, ParallelDecodeIsBitwiseIdentical) {
  // Every block interns into pools of its own; the unit merge must number
  // the strings as the inline read does, for every pool size.
  const std::string blob = fixture<ProxyRecord>("v2_units");
  ProxyPools sequential_pools;
  const Rows<ProxyRecord> sequential =
      read_binary_log<ProxyRecord>(blob_bytes(blob), sequential_pools);
  EXPECT_EQ(sequential, fixed_store().proxy);
  for (const int threads : kThreadCounts) {
    par::TaskPool pool(static_cast<std::size_t>(threads));
    ProxyPools fresh;
    EXPECT_EQ(read_binary_log<ProxyRecord>(blob_bytes(blob), fresh, &pool),
              sequential)
        << threads << " threads";
    EXPECT_EQ(fresh, sequential_pools) << threads << " threads";
  }
}

TEST(TraceV2, V1LogsReadableThroughSpanReader) {
  const std::string blob = fixture<ProxyRecord>("v1");
  const BinaryLogInfo info = probe_binary_log<ProxyRecord>(blob_bytes(blob));
  EXPECT_EQ(info.version, kBinaryFormatV1);
  EXPECT_EQ(info.blocks, 0u);
  EXPECT_EQ(info.records, 40u);
}

TEST(TraceV2, EmptyLogRoundTrips) {
  // The file header alone: an empty log, not a damaged one.
  const std::string blob = fixture<ProxyRecord>("v2").substr(0, 8);
  EXPECT_TRUE(read_binary_log<ProxyRecord>(blob_bytes(blob), sample_pools())
                  .empty());
  const BinaryLogInfo info = probe_binary_log<ProxyRecord>(blob_bytes(blob));
  EXPECT_EQ(info.version, kBinaryFormatV2);
  EXPECT_EQ(info.blocks, 0u);
  EXPECT_EQ(info.records, 0u);
}

class MappedFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("wearscope_map_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }

  void write_file(const std::string& content) {
    std::ofstream out(path_, std::ios::binary);
    out << content;
  }

  std::filesystem::path path_;
};

TEST_F(MappedFileTest, AutoAndFallbackSeeSameBytes) {
  const std::string content = fixture<ProxyRecord>("v2_units");
  write_file(content);
  const util::MappedFile mapped(path_, util::MapMode::kAuto);
  const util::MappedFile copied(path_, util::MapMode::kReadWholeFile);
  EXPECT_FALSE(copied.mapped());
  ASSERT_EQ(mapped.size(), content.size());
  ASSERT_EQ(copied.size(), content.size());
  EXPECT_TRUE(std::equal(mapped.bytes().begin(), mapped.bytes().end(),
                         copied.bytes().begin()));
  EXPECT_EQ(read_binary_log<ProxyRecord>(mapped.bytes(), sample_pools()),
            read_binary_log<ProxyRecord>(copied.bytes(), sample_pools()));
}

TEST_F(MappedFileTest, EmptyFileYieldsEmptySpan) {
  write_file("");
  const util::MappedFile file(path_, util::MapMode::kAuto);
  EXPECT_EQ(file.size(), 0u);
  EXPECT_TRUE(file.bytes().empty());
}

TEST_F(MappedFileTest, MissingFileThrowsIoError) {
  EXPECT_THROW(util::MappedFile(path_, util::MapMode::kAuto), util::IoError);
}

// ---------------------------------------------------------------------------
// Parallel bundle loading
// ---------------------------------------------------------------------------

class BundleParallel : public BundleTest {
 protected:
  /// Flips one payload byte of v2 block `block` of <dir>/proxy.bin.
  void corrupt_proxy_block(std::size_t block) {
    const std::filesystem::path bin = dir_ / "proxy.bin";
    std::string blob = slurp(bin);
    const UnitIndex index = scan_units(blob_bytes(blob).subspan(8),
                                       kBinaryFormatV2, /*lenient=*/true);
    ASSERT_GT(index.units.size(), block);
    blob[8 + index.units[block].payload_offset] ^= 0x01;
    std::ofstream out(bin, std::ios::binary | std::ios::trunc);
    out << blob;
  }
};

/// Checks `got` against fixed_store(): rows, pools, DeviceDB and sectors.
void expect_fixed_store(const TraceStore& got, const std::string& what) {
  const TraceStore want = fixed_store();
  EXPECT_EQ(got.proxy, want.proxy) << what;
  EXPECT_EQ(static_cast<const ProxyPools&>(got),
            static_cast<const ProxyPools&>(want))
      << what;
  EXPECT_EQ(got.mme, want.mme) << what;
  EXPECT_EQ(got.devices, want.devices) << what;
  EXPECT_EQ(got.sectors, want.sectors) << what;
}

TEST_F(BundleParallel, ThreadCountsProduceIdenticalStores) {
  // One record per block: every thread count splits the logs' units.
  testing::copy_units_bundle(dir_);
  for (const int threads : kThreadCounts) {
    LoadOptions options;
    options.threads = threads;
    expect_fixed_store(load_bundle(dir_, options),
                       std::to_string(threads) + " threads");
  }
}

TEST_F(BundleParallel, V2ParallelLoadMatchesV1SequentialLoad) {
  const TraceStore from_v1 = load_bundle(legacy_dir() / "v1", LoadOptions{});
  LoadOptions eight;
  eight.threads = 8;
  const TraceStore from_v2 = load_bundle(legacy_dir() / "v2", eight);
  EXPECT_EQ(from_v1.proxy, from_v2.proxy);
  EXPECT_EQ(static_cast<const ProxyPools&>(from_v1), from_v2);
  EXPECT_EQ(from_v1.mme, from_v2.mme);
  EXPECT_EQ(from_v1.devices, from_v2.devices);
  EXPECT_EQ(from_v1.sectors, from_v2.sectors);
  expect_fixed_store(from_v1, "v1");
}

TEST_F(BundleParallel, LenientAccountingIdenticalForEveryThreadCount) {
  testing::copy_units_bundle(dir_);
  corrupt_proxy_block(1);
  QuarantineStats baseline;
  const TraceStore sequential = load_bundle(dir_, baseline, LoadOptions{});
  EXPECT_EQ(baseline.corrupt_blocks, 1u);
  EXPECT_EQ(baseline.total_dropped(), 1u);
  // Block 1 holds row 1 alone: every other row survives, in order.
  const TraceStore fixed = fixed_store();
  ASSERT_EQ(sequential.proxy.size(), fixed.proxy.size() - 1);
  for (std::size_t i = 0; i < sequential.proxy.size(); ++i) {
    const ProxyRecord& r = sequential.proxy[i];
    const ProxyRecord& w = fixed.proxy[i < 1 ? i : i + 1];
    EXPECT_EQ(r.timestamp, w.timestamp) << "row " << i;
    EXPECT_EQ(sequential.hosts[r.host_id], fixed.hosts[w.host_id]) << i;
    EXPECT_EQ(sequential.paths[r.path_id], fixed.paths[w.path_id]) << i;
  }
  for (const int threads : kThreadCounts) {
    LoadOptions options;
    options.threads = threads;
    QuarantineStats q;
    const TraceStore parallel = load_bundle(dir_, q, options);
    EXPECT_TRUE(q == baseline) << threads << " threads";
    EXPECT_EQ(parallel.proxy, sequential.proxy) << threads << " threads";
    EXPECT_EQ(static_cast<const ProxyPools&>(parallel), sequential)
        << threads << " threads";
    EXPECT_EQ(parallel.mme, sequential.mme) << threads << " threads";
  }
}

TEST_F(BundleTest, V1BundleRoundTrips) {
  const std::filesystem::path v1 = legacy_dir() / "v1";
  expect_fixed_store(load_bundle(v1), "v1");
  const std::vector<BundleLogAudit> audits = audit_bundle(v1);
  ASSERT_EQ(audits.size(), 4u);
  const std::uint64_t records[] = {40, 30, 2, 5};
  for (std::size_t i = 0; i < audits.size(); ++i) {
    EXPECT_EQ(audits[i].version, kBinaryFormatV1);
    EXPECT_EQ(audits[i].blocks, 0u);
    EXPECT_EQ(audits[i].records, records[i]) << audits[i].stem;
  }
}

TEST_F(BundleTest, AuditReportsV2Layout) {
  const std::vector<BundleLogAudit> audits = audit_bundle(legacy_dir() / "v2");
  ASSERT_EQ(audits.size(), 4u);
  EXPECT_EQ(audits[0].stem, "proxy");
  EXPECT_EQ(audits[0].file, "proxy.bin");
  const std::uint64_t records[] = {40, 30, 2, 5};
  for (std::size_t i = 0; i < audits.size(); ++i) {
    EXPECT_EQ(audits[i].version, kBinaryFormatV2);
    EXPECT_EQ(audits[i].blocks, 1u);
    EXPECT_EQ(audits[i].records, records[i]) << audits[i].stem;
  }
}

TEST_F(BundleTest, DualFormatWarnsAndPrefersBinary) {
  TraceStore binary_store = make_store();
  save_bundle(binary_store, dir_, BundleFormat::kBinary);
  // A stale CSV with DIFFERENT content sits next to the binary log.
  TraceStore csv_store = make_store();
  set_strings(csv_store.proxy[0], csv_store, "stale.example");
  save_bundle(csv_store, dir_ / "csv", BundleFormat::kCsv);
  std::filesystem::copy_file(dir_ / "csv" / "proxy.csv", dir_ / "proxy.csv");
  ::testing::internal::CaptureStderr();
  const TraceStore out = load_bundle(dir_);
  const std::string warning = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(warning.find("proxy.bin"), std::string::npos) << warning;
  EXPECT_NE(warning.find("proxy.csv"), std::string::npos) << warning;
  EXPECT_EQ(out.proxy, binary_store.proxy);  // binary wins
  EXPECT_EQ(out.hosts, binary_store.hosts);
}

TEST_F(BundleTest, SaveErrorMentionsPathAndReason) {
  std::filesystem::create_directories(dir_ / "proxy.bin");
  try {
    save_bundle(make_store(), dir_, BundleFormat::kBinary);
    FAIL() << "expected IoError";
  } catch (const util::IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("proxy.bin"), std::string::npos) << what;
    EXPECT_NE(what.find("cannot open for writing"), std::string::npos) << what;
    // errno context: the OS reason rides along in parentheses
    EXPECT_NE(what.find('('), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace wearscope::trace
