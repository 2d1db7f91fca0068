// Unit tests for binary/CSV trace serialization and bundle persistence.
#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>

#include <gtest/gtest.h>

#include "par/task_pool.h"
#include "trace/block_io.h"
#include "trace/bundle.h"
#include "trace/csv_io.h"
#include "trace/log_reader.h"
#include "util/byte_codec.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/mapped_file.h"
#include "test_support.h"

namespace wearscope::trace {
namespace {

using testing::set_strings;

/// The pools the free-standing proxy rows of this file intern into.  The
/// readers below decode into the same pools, so a string read back maps to
/// the id it was written with and rows compare equal id for id.
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

template <typename Log>
std::string v1_blob(const Log& records) {
  using Record = typename Log::value_type;
  std::ostringstream out;
  BinaryLogWriter<Record> writer(out, sample_pools());
  for (const Record& r : records) writer.write(r);
  return out.str();
}

/// read_binary_log into sample_pools().
template <typename Record>
Rows<Record> read_log(std::span<const std::byte> bytes,
                      par::TaskPool* pool = nullptr) {
  return read_binary_log<Record>(bytes, sample_pools(), pool);
}

template <typename Record>
Record binary_round_trip(const Record& in) {
  const std::string blob = v1_blob(Rows<Record>{in});
  const Rows<Record> out = read_log<Record>(blob_bytes(blob));
  EXPECT_EQ(out.size(), 1u);
  return out.empty() ? Record{} : out.front();
}

TEST(BinaryIo, ProxyRoundTrip) {
  EXPECT_EQ(binary_round_trip(sample_proxy()), sample_proxy());
}

TEST(BinaryIo, MmeRoundTrip) {
  EXPECT_EQ(binary_round_trip(sample_mme()), sample_mme());
}

TEST(BinaryIo, DeviceRoundTrip) {
  EXPECT_EQ(binary_round_trip(sample_device()), sample_device());
}

TEST(BinaryIo, SectorRoundTrip) {
  EXPECT_EQ(binary_round_trip(sample_sector()), sample_sector());
}

TEST(BinaryIo, ManyRecordsPreserveOrder) {
  Rows<ProxyRecord> records;
  for (int i = 0; i < 500; ++i) {
    ProxyRecord r = sample_proxy();
    r.timestamp = i;
    set_strings(r, sample_pools(), "host" + std::to_string(i) + ".example",
                "/v1/forecast?loc=x,y");
    records.push_back(r);
  }
  const std::string blob = v1_blob(records);
  EXPECT_EQ(read_log<ProxyRecord>(blob_bytes(blob)), records);
}

TEST(BinaryIo, WrongMagicRejected) {
  const std::string blob = v1_blob(Rows<MmeRecord>{});
  EXPECT_THROW((void)read_log<ProxyRecord>(blob_bytes(blob)),
               util::ParseError);
}

TEST(BinaryIo, TruncatedRecordRejected) {
  std::string blob = v1_blob(Rows<ProxyRecord>{sample_proxy()});
  blob.resize(blob.size() - 3);  // chop the tail
  EXPECT_THROW((void)read_log<ProxyRecord>(blob_bytes(blob)),
               util::ParseError);
}

TEST(BinaryIo, EmptyStreamRejected) {
  EXPECT_THROW((void)read_log<ProxyRecord>(blob_bytes("")),
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
  ProxyRecord r = sample_proxy();
  r.timestamp = -42;
  EXPECT_EQ(binary_round_trip(r).timestamp, -42);
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
// Blocked v2 format (trace/block_io)
// ---------------------------------------------------------------------------

template <typename Log>
std::string v2_blob(const Log& records, BlockWriterOptions options = {}) {
  using Record = typename Log::value_type;
  std::ostringstream out;
  BlockLogWriter<Record> writer(out, sample_pools(), options);
  for (const Record& r : records) writer.write(r);
  writer.finish();
  return out.str();
}

Rows<ProxyRecord> many_proxy(std::size_t n,
                             ProxyPools& pools = sample_pools()) {
  Rows<ProxyRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ProxyRecord r = sample_fields();
    r.timestamp = static_cast<util::SimTime>(i * 13);
    r.user_id = 1'000'000 + i;
    set_strings(r, pools, "host" + std::to_string(i % 97) + ".example",
                i % 3 == 0 ? "" : "/p/" + std::to_string(i));
    r.bytes_down = i * 17 + 1;
    records.push_back(r);
  }
  return records;
}

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
  const Rows<ProxyRecord> proxy = {sample_proxy()};
  const Rows<MmeRecord> mme = {sample_mme()};
  const std::vector<DeviceRecord> devices = {sample_device()};
  const std::vector<SectorInfo> sectors = {sample_sector()};
  EXPECT_EQ(read_log<ProxyRecord>(blob_bytes(v2_blob(proxy))), proxy);
  EXPECT_EQ(read_binary_log<MmeRecord>(blob_bytes(v2_blob(mme))), mme);
  EXPECT_EQ(read_binary_log<DeviceRecord>(blob_bytes(v2_blob(devices))),
            devices);
  EXPECT_EQ(read_binary_log<SectorInfo>(blob_bytes(v2_blob(sectors))),
            sectors);
}

TEST(TraceV2, MultiBlockPreservesOrderAndCounts) {
  const Rows<ProxyRecord> records = many_proxy(1000);
  BlockWriterOptions options;
  options.max_block_records = 64;
  std::ostringstream out;
  BlockLogWriter<ProxyRecord> writer(out, sample_pools(), options);
  for (const ProxyRecord& r : records) writer.write(r);
  writer.finish();
  writer.finish();  // idempotent
  EXPECT_EQ(writer.count(), records.size());
  EXPECT_GT(writer.block_count(), 1u);
  const std::string blob = out.str();
  EXPECT_EQ(read_log<ProxyRecord>(blob_bytes(blob)), records);
  const BinaryLogInfo info = probe_binary_log<ProxyRecord>(blob_bytes(blob));
  EXPECT_EQ(info.version, kBinaryFormatV2);
  EXPECT_EQ(info.blocks, writer.block_count());
  EXPECT_EQ(info.records, records.size());
}

TEST(TraceV2, ParallelDecodeIsBitwiseIdentical) {
  const Rows<ProxyRecord> records = many_proxy(2000);
  BlockWriterOptions options;
  options.max_block_records = 100;
  const std::string blob = v2_blob(records, options);
  const Rows<ProxyRecord> sequential =
      read_log<ProxyRecord>(blob_bytes(blob));
  EXPECT_EQ(sequential, records);
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    par::TaskPool pool(threads);
    // Fresh pools too: the unit merge must number them identically.
    ProxyPools fresh;
    Rows<ProxyRecord> parallel =
        read_binary_log<ProxyRecord>(blob_bytes(blob), fresh, &pool);
    ProxyPools fresh_sequential;
    EXPECT_EQ(parallel, read_binary_log<ProxyRecord>(blob_bytes(blob),
                                                     fresh_sequential))
        << threads << " threads";
    EXPECT_EQ(fresh, fresh_sequential) << threads << " threads";
    // Renumbered into the writer's pools, the rows are the written ones.
    remap_ids(parallel, fresh, sample_pools());
    EXPECT_EQ(parallel, sequential) << threads << " threads";
  }
}

TEST(TraceV2, V1LogsReadableThroughSpanReader) {
  const Rows<ProxyRecord> records = many_proxy(50);
  const std::string blob = v1_blob(records);
  EXPECT_EQ(read_log<ProxyRecord>(blob_bytes(blob)), records);
  const BinaryLogInfo info = probe_binary_log<ProxyRecord>(blob_bytes(blob));
  EXPECT_EQ(info.version, 1);
  EXPECT_EQ(info.blocks, 0u);
  EXPECT_EQ(info.records, records.size());
}

TEST(TraceV2, EmptyLogRoundTrips) {
  const std::string blob = v2_blob(Rows<ProxyRecord>{});
  EXPECT_EQ(blob.size(), 8u);  // header only: no empty trailing block
  EXPECT_TRUE(read_log<ProxyRecord>(blob_bytes(blob)).empty());
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
  const std::string content = v2_blob(many_proxy(300));
  write_file(content);
  const util::MappedFile mapped(path_, util::MapMode::kAuto);
  const util::MappedFile copied(path_, util::MapMode::kReadWholeFile);
  EXPECT_FALSE(copied.mapped());
  ASSERT_EQ(mapped.size(), content.size());
  ASSERT_EQ(copied.size(), content.size());
  EXPECT_TRUE(std::equal(mapped.bytes().begin(), mapped.bytes().end(),
                         copied.bytes().begin()));
  EXPECT_EQ(read_log<ProxyRecord>(mapped.bytes()),
            read_log<ProxyRecord>(copied.bytes()));
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
  /// Big enough that every log spans several v2 blocks under the default
  /// writer options (4096 records/block).
  TraceStore make_big_store() {
    TraceStore s;
    s.proxy = many_proxy(10'000, s);
    for (std::size_t i = 0; i < 9'000; ++i) {
      MmeRecord r = sample_mme();
      r.timestamp = static_cast<util::SimTime>(i * 7);
      r.user_id = 1'000'000 + (i % 500);
      s.mme.push_back(r);
    }
    s.devices = {sample_device()};
    s.sectors = {sample_sector()};
    return s;
  }

  /// Flips one payload byte of the given v2 block of <dir>/proxy.bin.
  void corrupt_proxy_block(std::size_t block) {
    const std::filesystem::path bin = dir_ / "proxy.bin";
    std::string blob;
    {
      std::ifstream in(bin, std::ios::binary);
      std::ostringstream buf;
      buf << in.rdbuf();
      blob = buf.str();
    }
    const UnitIndex index = scan_units(blob_bytes(blob).subspan(8),
                                       kBinaryFormatV2, /*lenient=*/true);
    ASSERT_GT(index.units.size(), block);
    blob[8 + index.units[block].payload_offset] ^= 0x01;
    std::ofstream out(bin, std::ios::binary | std::ios::trunc);
    out << blob;
  }
};

TEST_F(BundleParallel, ThreadCountsProduceIdenticalStores) {
  const TraceStore in = make_big_store();
  save_bundle(in, dir_, BundleFormat::kBinary, kBinaryFormatV2);
  const TraceStore sequential = load_bundle(dir_, LoadOptions{});
  EXPECT_EQ(sequential.proxy, in.proxy);
  EXPECT_EQ(static_cast<const ProxyPools&>(sequential), in);
  EXPECT_EQ(sequential.mme, in.mme);
  for (const int threads : {2, 4, 8}) {
    LoadOptions options;
    options.threads = threads;
    const TraceStore parallel = load_bundle(dir_, options);
    EXPECT_EQ(parallel.proxy, sequential.proxy) << threads << " threads";
    EXPECT_EQ(static_cast<const ProxyPools&>(parallel), sequential)
        << threads << " threads";
    EXPECT_EQ(parallel.mme, sequential.mme) << threads << " threads";
    EXPECT_EQ(parallel.devices, sequential.devices) << threads << " threads";
    EXPECT_EQ(parallel.sectors, sequential.sectors) << threads << " threads";
  }
}

TEST_F(BundleParallel, V2ParallelLoadMatchesV1SequentialLoad) {
  const TraceStore in = make_big_store();
  const std::filesystem::path v1_dir = dir_ / "v1";
  const std::filesystem::path v2_dir = dir_ / "v2";
  save_bundle(in, v1_dir, BundleFormat::kBinary, 1);
  save_bundle(in, v2_dir, BundleFormat::kBinary, kBinaryFormatV2);
  const TraceStore from_v1 = load_bundle(v1_dir, LoadOptions{});
  LoadOptions eight;
  eight.threads = 8;
  const TraceStore from_v2 = load_bundle(v2_dir, eight);
  EXPECT_EQ(from_v1.proxy, from_v2.proxy);
  EXPECT_EQ(static_cast<const ProxyPools&>(from_v1), from_v2);
  EXPECT_EQ(from_v1.mme, from_v2.mme);
  EXPECT_EQ(from_v1.devices, from_v2.devices);
  EXPECT_EQ(from_v1.sectors, from_v2.sectors);
  EXPECT_EQ(from_v1.proxy, in.proxy);
}

TEST_F(BundleParallel, LenientAccountingIdenticalForEveryThreadCount) {
  save_bundle(make_big_store(), dir_, BundleFormat::kBinary, kBinaryFormatV2);
  corrupt_proxy_block(1);
  QuarantineStats baseline;
  const TraceStore sequential = load_bundle(dir_, baseline, LoadOptions{});
  EXPECT_EQ(baseline.corrupt_blocks, 1u);
  EXPECT_EQ(baseline.total_dropped(), 1u);
  for (const int threads : {2, 4, 8}) {
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
  const TraceStore in = make_store();
  save_bundle(in, dir_, BundleFormat::kBinary, 1);
  const TraceStore out = load_bundle(dir_);
  EXPECT_EQ(out.proxy, in.proxy);
  EXPECT_EQ(out.mme, in.mme);
  const std::vector<BundleLogAudit> audits = audit_bundle(dir_);
  ASSERT_EQ(audits.size(), 4u);
  for (const BundleLogAudit& a : audits) {
    EXPECT_EQ(a.version, 1);
    EXPECT_EQ(a.blocks, 0u);
    EXPECT_EQ(a.records, 1u);
  }
}

TEST_F(BundleTest, AuditReportsV2Layout) {
  save_bundle(make_store(), dir_, BundleFormat::kBinary, kBinaryFormatV2);
  const std::vector<BundleLogAudit> audits = audit_bundle(dir_);
  ASSERT_EQ(audits.size(), 4u);
  EXPECT_EQ(audits[0].stem, "proxy");
  EXPECT_EQ(audits[0].file, "proxy.bin");
  for (const BundleLogAudit& a : audits) {
    EXPECT_EQ(a.version, kBinaryFormatV2);
    EXPECT_EQ(a.blocks, 1u);
    EXPECT_EQ(a.records, 1u);
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
