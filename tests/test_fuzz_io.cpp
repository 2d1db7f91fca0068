// Deterministic mutation fuzzing of the trace parsers: whatever bytes we
// throw at them, readers must either parse or throw util::ParseError —
// never crash, hang, or return garbage silently.  (Networking code rule
// one: the input is hostile.)
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/fault_plan.h"
#include "fed/merge.h"
#include "live/engine.h"
#include "legacy_fixtures.h"
#include "test_support.h"
#include "trace/columnar_io.h"
#include "trace/csv_io.h"
#include "trace/log_reader.h"
#include "util/byte_codec.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/rng.h"

namespace wearscope::trace {
namespace {

std::span<const std::byte> blob_bytes(const std::string& blob) {
  return std::as_bytes(std::span<const char>(blob.data(), blob.size()));
}

/// The pools every proxy sample of this file interns into.  The readers
/// below decode into the same pools, so a record read back carries the ids
/// it was written with (garbage strings a mutated log decodes to only add
/// entries).
ProxyPools& fuzz_pools() {
  static ProxyPools pools;
  return pools;
}

/// read_binary_log into fuzz_pools().
template <typename Record>
Rows<Record> read_log(std::span<const std::byte> bytes) {
  return read_binary_log<Record>(bytes, fuzz_pools());
}

/// read_binary_log_lenient into fuzz_pools().
template <typename Record>
Rows<Record> read_log_lenient(std::span<const std::byte> bytes,
                              QuarantineStats& quarantine) {
  return read_binary_log_lenient<Record>(bytes, quarantine, fuzz_pools());
}

/// The v1 or v2 fixture log `file` of legacy directory `dir`
/// (legacy_fixtures.h): a clean log of testing::fixed_store()'s rows.
std::string legacy_log(const std::string& dir, const std::string& file) {
  return testing::slurp(testing::legacy_dir() / dir / file);
}

/// testing::fixed_store()'s proxy rows, renumbered into fuzz_pools(): what
/// a clean read of a proxy fixture into fuzz_pools() gives.
Rows<ProxyRecord> fixed_proxy() {
  const TraceStore fixed = testing::fixed_store();
  Rows<ProxyRecord> rows = fixed.proxy;
  remap_ids(rows, fixed, fuzz_pools());
  return rows;
}

/// Strict read of a whole log; returns the record count (may throw).
template <typename Record>
std::size_t drain_binary(const std::string& blob) {
  return read_log<Record>(blob_bytes(blob)).size();
}

TEST(FuzzBinary, TruncationAtEveryOffsetIsHandled) {
  const std::string blob = legacy_log("v1", "proxy.bin");
  for (std::size_t cut = 0; cut <= blob.size(); ++cut) {
    const std::string prefix = blob.substr(0, cut);
    try {
      const std::size_t n = drain_binary<ProxyRecord>(prefix);
      EXPECT_LE(n, 40u);
    } catch (const util::ParseError&) {
      // acceptable: truncated header or record
    }
  }
}

TEST(FuzzBinary, SingleByteFlipsNeverCrash) {
  const std::string blob = legacy_log("v1", "proxy.bin");
  const std::uint64_t seed = testing::seed_or(0xF122);
  WEARSCOPE_SCOPED_SEED(seed);
  util::Pcg32 rng(seed);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = blob;
    const auto pos = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(mutated.size()) - 1));
    mutated[pos] = static_cast<char>(rng.uniform_int(0, 255));
    try {
      (void)drain_binary<ProxyRecord>(mutated);
    } catch (const util::ParseError&) {
      // expected for corrupted magic/length/enum bytes
    }
  }
}

TEST(FuzzBinary, RandomGarbageIsRejectedOrEmpty) {
  const std::uint64_t seed = testing::seed_or(0xBAD5EED);
  WEARSCOPE_SCOPED_SEED(seed);
  util::Pcg32 rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 256));
    std::string garbage(len, '\0');
    for (char& c : garbage) c = static_cast<char>(rng.uniform_int(0, 255));
    try {
      (void)drain_binary<MmeRecord>(garbage);
    } catch (const util::ParseError&) {
    }
  }
}

TEST(FuzzBinary, LengthPrefixBombIsBounded) {
  // A corrupted string length must fail with ParseError, not allocate
  // unbounded memory: the u16 prefix bounds strings to 64 KiB by design.
  // The v1 fixture's file header and first record up to its host length
  // prefix (i64 ts + u64 user + u32 tac + u8 protocol = 21 bytes)...
  std::string blob = legacy_log("v1", "proxy.bin").substr(0, 8 + 21);
  blob += "\xff\xff";  // ...then a host length claiming 65535 bytes...
  blob += "short";     // ...of which only 5 follow
  EXPECT_THROW(drain_binary<ProxyRecord>(blob), util::ParseError);
}

TEST(FuzzCsv, MutatedRowsAreRejectedNotCrashing) {
  std::ostringstream out;
  {
    CsvLogWriter<MmeRecord> writer(out);
    for (int i = 0; i < 10; ++i) {
      writer.write({i * 60, static_cast<UserId>(100 + i), 35254208,
                    MmeEvent::kAttach, static_cast<SectorId>(i + 1)});
    }
  }
  const std::string blob = out.str();
  const std::uint64_t seed = testing::seed_or(0xC54F);
  WEARSCOPE_SCOPED_SEED(seed);
  util::Pcg32 rng(seed);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = blob;
    const auto pos = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(mutated.size()) - 1));
    mutated[pos] = static_cast<char>(rng.uniform_int(32, 126));
    std::istringstream in(mutated);
    try {
      CsvLogReader<MmeRecord> reader(in);
      MmeRecord r;
      while (reader.next(r)) {
      }
    } catch (const util::ParseError&) {
      // expected for corrupted headers/fields
    }
  }
}

TEST(FuzzCsv, ArbitraryTextLinesAreRejected) {
  const std::uint64_t seed = testing::seed_or(0x7E57);
  WEARSCOPE_SCOPED_SEED(seed);
  util::Pcg32 rng(seed);
  const std::string header = "timestamp,user_id,tac,event,sector_id\n";
  for (int trial = 0; trial < 200; ++trial) {
    std::string body;
    const auto lines = rng.uniform_int(0, 5);
    for (std::int64_t l = 0; l < lines; ++l) {
      const auto len = rng.uniform_int(0, 60);
      for (std::int64_t i = 0; i < len; ++i) {
        body += static_cast<char>(rng.uniform_int(32, 126));
      }
      body += '\n';
    }
    std::istringstream in(header + body);
    try {
      CsvLogReader<MmeRecord> reader(in);
      MmeRecord r;
      while (reader.next(r)) {
      }
    } catch (const util::ParseError&) {
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded chaos corpus: instead of blind mutation, aim structured faults at
// the binary layout via chaos::FaultPlan and hold the lenient reader to the
// corpus's own accounting promise (chaos::ByteFault::expected).
// ---------------------------------------------------------------------------

/// `n` proxy rows interned into fuzz_pools(), for the v3 writer.
Rows<ProxyRecord> sample_proxy(std::size_t n) {
  Rows<ProxyRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ProxyRecord r;
    r.timestamp = static_cast<util::SimTime>(i * 37);
    r.user_id = 1'000'000 + i;
    r.tac = 35254208;
    r.protocol = i % 2 == 0 ? Protocol::kHttps : Protocol::kHttp;
    testing::set_strings(r, fuzz_pools(),
                         "host" + std::to_string(i) + ".example",
                         i % 2 == 0 ? "" : "/p/" + std::to_string(i));
    r.bytes_up = i * 11;
    r.bytes_down = i * 101 + 1;
    r.duration_ms = static_cast<std::uint32_t>(i + 1);
    records.push_back(r);
  }
  return records;
}

/// Feeds the seeded "io" corpus of the clean v1 log `log` to the lenient
/// reader; exact entries must keep exactly the promised prefix of `rows`
/// (the log's rows, ids in fuzz_pools()) and count exactly the promised
/// quarantine.
template <typename Log>
void drive_corpus(std::string log, const Log& rows, bool proxy_layout,
                  std::uint64_t seed) {
  using Record = typename Log::value_type;
  const chaos::BinaryImage image = chaos::image_of<Record>(std::move(log));
  ASSERT_EQ(image.record_offsets.size(), rows.size());
  const chaos::FaultPlan plan(seed, chaos::FaultProfile::named("io"));
  const std::vector<chaos::ByteFault> corpus =
      plan.byte_corpus(image, proxy_layout);
  ASSERT_FALSE(corpus.empty());

  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const chaos::ByteFault& fault = corpus[i];
    QuarantineStats q;
    Rows<Record> got;
    // Lenient reads never throw — corruption lands in `q`, not exceptions.
    ASSERT_NO_THROW(got = read_log_lenient<Record>(
                        blob_bytes(fault.bytes), q))
        << "seed " << seed << " corpus entry " << i;
    if (fault.exact) {
      EXPECT_EQ(got.size(), fault.expected_survivors)
          << "seed " << seed << " corpus entry " << i;
      EXPECT_TRUE(q == fault.expected)
          << "seed " << seed << " corpus entry " << i;
      EXPECT_TRUE(std::equal(got.begin(), got.end(), rows.begin()))
          << "seed " << seed << " corpus entry " << i;
    } else {
      // Bit flips only promise survival: no crash, no unbounded growth.
      EXPECT_LE(got.size(), rows.size())
          << "seed " << seed << " corpus entry " << i;
    }
  }
}

TEST(FuzzChaosCorpus, ProxyCorpusHonorsExactAccounting) {
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    drive_corpus(legacy_log("v1", "proxy.bin"), fixed_proxy(),
                 /*proxy_layout=*/true, seed);
  }
}

TEST(FuzzChaosCorpus, MmeCorpusHonorsExactAccounting) {
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    drive_corpus(legacy_log("v1", "mme.bin"), testing::fixed_store().mme,
                 /*proxy_layout=*/false, seed);
  }
}

// ---------------------------------------------------------------------------
// Blocked v2 frame corpus: corruption must stay block-granular.  Every test
// here asserts EXACT QuarantineStats accounting (one counted block per
// injected fault) and that the reader resyncs at the next frame header.
// The corpus is the v2_units proxy fixture: 40 blocks of one record each,
// more than a strided cursor's handoff window.
// ---------------------------------------------------------------------------

/// The 40-block v2 proxy fixture.
std::string v2_units_log() { return legacy_log("v2_units", "proxy.bin"); }

/// Frame index of a complete v2 blob (file header included).
UnitIndex index_of(const std::string& blob) {
  return scan_units(blob_bytes(blob).subspan(8), kBinaryFormatV2,
                    /*lenient=*/true);
}

/// Reads `blob` through `lanes` strided cursors, one stream each, taking
/// their units round-robin (unit k from lane k % lanes) as a partition
/// feed's merge does; nullopt when a cursor throws util::ParseError before
/// the end of the log.  Row ids are remapped into fuzz_pools().
std::optional<Rows<ProxyRecord>> read_strided(const std::string& blob,
                                              std::size_t lanes) {
  std::vector<std::istringstream> streams;
  streams.reserve(lanes);
  std::vector<LogCursor<ProxyRecord>> cursors;
  cursors.reserve(lanes);
  for (std::size_t k = 0; k < lanes; ++k) {
    streams.emplace_back(blob);
    cursors.emplace_back(streams.back(), k, lanes);
  }
  Rows<ProxyRecord> out;
  std::vector<ProxyRecord> unit;
  try {
    for (std::size_t k = 0;; ++k) {
      LogCursor<ProxyRecord>& cursor = cursors[k % lanes];
      if (!cursor.next_unit(unit)) return out;
      remap_ids(unit, cursor.pools(), fuzz_pools());
      out.insert(out.end(), unit.begin(), unit.end());
    }
  } catch (const util::ParseError&) {
    return std::nullopt;
  }
}

/// The strict streaming cursor and the strict whole-log reader must agree
/// on `blob`: both throw util::ParseError or both return the same records,
/// and so do two and three strided cursors read round-robin.
/// A header that (after mutation) says v1 has no units to stream, so there
/// only the cursor's refusal is checked.  The claimed-record walk the
/// partition feed pre-sizes with runs first on the cursor's stream: it
/// never throws, never claims more records than the blob has bytes, leaves
/// the cursor reading from the start, and claims exactly what an intact
/// log holds.
void expect_cursor_agrees(const std::string& blob, const std::string& what) {
  std::optional<Rows<ProxyRecord>> whole;
  try {
    whole = read_log<ProxyRecord>(blob_bytes(blob));
  } catch (const util::ParseError&) {
  }
  std::uint64_t claimed = 0;
  std::optional<Rows<ProxyRecord>> streamed;
  try {
    std::istringstream in(blob);
    const ClaimedRecords walk = claimed_records<ProxyRecord>(in);
    claimed = walk.records;
    EXPECT_LE(claimed, blob.size()) << what;
    EXPECT_LE(walk.largest_unit, blob.size()) << what;
    LogCursor<ProxyRecord> cursor(in);
    Rows<ProxyRecord> got;
    while (const ProxyRecord* r = cursor.next()) got.push_back(*r);
    // The cursor numbers its own pools; compare what the rows say.
    remap_ids(got, cursor.pools(), fuzz_pools());
    streamed = std::move(got);
  } catch (const util::ParseError&) {
  }
  bool v1 = false;
  try {
    v1 = read_log_header<ProxyRecord>(blob_bytes(blob)) == 1;
  } catch (const util::ParseError&) {
  }
  if (v1) {
    EXPECT_FALSE(streamed.has_value()) << what;
    return;
  }
  ASSERT_EQ(whole.has_value(), streamed.has_value()) << what;
  if (whole.has_value()) {
    EXPECT_EQ(*whole, *streamed) << what;
    EXPECT_EQ(claimed, whole->size()) << what;
  }
  for (const std::size_t lanes : {2u, 3u}) {
    const std::optional<Rows<ProxyRecord>> strided =
        read_strided(blob, lanes);
    ASSERT_EQ(whole.has_value(), strided.has_value())
        << what << " (" << lanes << " lanes)";
    if (whole.has_value()) EXPECT_EQ(*whole, *strided) << what;
  }
}

/// `sample` minus the records of block `skip` (order otherwise preserved).
Rows<ProxyRecord> without_block(const Rows<ProxyRecord>& sample,
                                const UnitIndex& index, std::size_t skip) {
  Rows<ProxyRecord> expect;
  std::size_t base = 0;
  for (std::size_t i = 0; i < index.units.size(); ++i) {
    const std::size_t n = index.units[i].record_count;
    if (i != skip) {
      expect.insert(expect.end(), sample.begin() + static_cast<long>(base),
                    sample.begin() + static_cast<long>(base + n));
    }
    base += n;
  }
  return expect;
}

TEST(FuzzV2, TruncationAtEveryOffsetHonorsBlockAccounting) {
  const std::string blob = v2_units_log();
  const UnitIndex index = index_of(blob);
  ASSERT_EQ(index.units.size(), 40u);
  // File offset where each frame ends, and records recovered up to it.
  std::vector<std::size_t> frame_end;
  std::vector<std::size_t> records_before;
  std::size_t total = 0;
  for (const LogUnit& f : index.units) {
    total += f.record_count;
    frame_end.push_back(8 + f.payload_offset + f.byte_length);
    records_before.push_back(total);
  }
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    const std::string prefix = blob.substr(0, cut);
    QuarantineStats q;
    Rows<ProxyRecord> got;
    ASSERT_NO_THROW(
        got = read_log_lenient<ProxyRecord>(blob_bytes(prefix), q))
        << "cut " << cut;
    expect_cursor_agrees(prefix, "cut " + std::to_string(cut));
    if (cut < 8) {
      // Not even a file header: the whole file quarantines as one unit.
      EXPECT_EQ(q.corrupt_files, 1u) << "cut " << cut;
      EXPECT_TRUE(got.empty()) << "cut " << cut;
      continue;
    }
    std::size_t complete = 0;
    bool on_boundary = cut == 8;
    for (std::size_t i = 0; i < frame_end.size(); ++i) {
      if (frame_end[i] <= cut) complete = records_before[i];
      if (frame_end[i] == cut) on_boundary = true;
    }
    // A cut on a frame boundary just looks like a shorter log; anywhere
    // else exactly ONE block is lost to the broken chain.
    EXPECT_EQ(got.size(), complete) << "cut " << cut;
    EXPECT_EQ(q.corrupt_blocks, on_boundary ? 0u : 1u) << "cut " << cut;
    EXPECT_EQ(q.corrupt_files, 0u) << "cut " << cut;
    EXPECT_EQ(q.corrupt_tails, 0u) << "cut " << cut;
  }
}

TEST(FuzzV2, CorruptCrcQuarantinesExactlyThatBlock) {
  const Rows<ProxyRecord> sample = fixed_proxy();
  const std::string blob = v2_units_log();
  const UnitIndex index = index_of(blob);
  for (std::size_t k = 0; k < index.units.size(); ++k) {
    std::string mutated = blob;
    mutated[8 + index.units[k].payload_offset] ^= 0x01;
    QuarantineStats q;
    Rows<ProxyRecord> got;
    ASSERT_NO_THROW(
        got = read_log_lenient<ProxyRecord>(blob_bytes(mutated), q))
        << "block " << k;
    expect_cursor_agrees(mutated, "block " + std::to_string(k));
    EXPECT_EQ(q.corrupt_blocks, 1u) << "block " << k;
    EXPECT_EQ(q.total_dropped(), 1u) << "block " << k;
    // Resync is exact: every OTHER block survives, in order.
    EXPECT_EQ(got, without_block(sample, index, k)) << "block " << k;
    // The strict reader must refuse what the lenient one quarantined.
    EXPECT_THROW((void)read_log<ProxyRecord>(blob_bytes(mutated)),
                 util::ParseError)
        << "block " << k;
  }
}

TEST(FuzzV2, OverlongByteLengthLosesOnlyTheTail) {
  const Rows<ProxyRecord> sample = fixed_proxy();
  const std::string blob = v2_units_log();
  const UnitIndex index = index_of(blob);
  for (const std::size_t k :
       {std::size_t{0}, std::size_t{19}, std::size_t{39}}) {
    std::string mutated = blob;
    // byte_length lives 8 bytes before the payload (after record_count u32).
    const std::size_t at = 8 + index.units[k].payload_offset - 8;
    for (std::size_t i = 0; i < 4; ++i) mutated[at + i] = '\xff';
    QuarantineStats q;
    Rows<ProxyRecord> got;
    ASSERT_NO_THROW(
        got = read_log_lenient<ProxyRecord>(blob_bytes(mutated), q))
        << "block " << k;
    expect_cursor_agrees(mutated, "block " + std::to_string(k));
    // The chain is unrecoverable past a broken length: one counted block,
    // every frame before it intact.
    EXPECT_EQ(q.corrupt_blocks, 1u) << "block " << k;
    EXPECT_EQ(got.size(), k) << "block " << k;  // one record per block
    EXPECT_TRUE(std::equal(got.begin(), got.end(), sample.begin()))
        << "block " << k;
  }
}

TEST(FuzzV2, ImpossibleRecordCountSkipsFrameAndResyncs) {
  const Rows<ProxyRecord> sample = fixed_proxy();
  const std::string blob = v2_units_log();
  const UnitIndex index = index_of(blob);
  for (std::size_t k = 0; k < index.units.size(); ++k) {
    std::string mutated = blob;
    // record_count > byte_length is impossible (records are >= 1 byte);
    // the frame is skipped but byte_length still chains to the next one.
    const std::uint32_t bogus = index.units[k].byte_length + 1;
    const std::size_t at = 8 + index.units[k].payload_offset - 12;
    for (std::size_t i = 0; i < 4; ++i)
      mutated[at + i] = static_cast<char>((bogus >> (8 * i)) & 0xff);
    QuarantineStats q;
    Rows<ProxyRecord> got;
    ASSERT_NO_THROW(
        got = read_log_lenient<ProxyRecord>(blob_bytes(mutated), q))
        << "block " << k;
    expect_cursor_agrees(mutated, "block " + std::to_string(k));
    EXPECT_EQ(q.corrupt_blocks, 1u) << "block " << k;
    EXPECT_EQ(got, without_block(sample, index, k)) << "block " << k;
  }
}

TEST(FuzzV2, ZeroRecordBlockParsesCleanly) {
  const Rows<ProxyRecord> sample = fixed_proxy();
  const std::string blob = v2_units_log();
  const UnitIndex index = index_of(blob);
  // Splice an empty frame (0 records, 0 bytes, crc32("") == 0, i.e. twelve
  // zero bytes) between two real frames: a valid no-op, not corruption.
  const std::size_t at = 8 + index.units[4].payload_offset - 12;
  std::string spliced = blob.substr(0, at) + std::string(12, '\0') +
                        blob.substr(at);
  QuarantineStats q;
  Rows<ProxyRecord> lenient;
  ASSERT_NO_THROW(
      lenient = read_log_lenient<ProxyRecord>(blob_bytes(spliced), q));
  expect_cursor_agrees(spliced, "spliced");
  EXPECT_EQ(lenient, sample);
  EXPECT_FALSE(q.any());
  EXPECT_EQ(read_log<ProxyRecord>(blob_bytes(spliced)), sample);
  const BinaryLogInfo info = probe_binary_log<ProxyRecord>(blob_bytes(spliced));
  EXPECT_EQ(info.blocks, index.units.size() + 1);
  EXPECT_EQ(info.records, sample.size());
}

TEST(FuzzV2, SingleByteFlipsNeverCrashLenient) {
  const std::string blob = v2_units_log();
  const std::uint64_t seed = testing::seed_or(0xB10C);
  WEARSCOPE_SCOPED_SEED(seed);
  util::Pcg32 rng(seed);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = blob;
    const auto pos = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(mutated.size()) - 1));
    mutated[pos] = static_cast<char>(rng.uniform_int(0, 255));
    QuarantineStats q;
    Rows<ProxyRecord> got;
    // Lenient reads never throw — corruption lands in `q`, not exceptions.
    ASSERT_NO_THROW(
        got = read_log_lenient<ProxyRecord>(blob_bytes(mutated), q))
        << "trial " << trial;
    expect_cursor_agrees(mutated, "trial " + std::to_string(trial));
    EXPECT_LE(got.size(), 40u) << "trial " << trial;
    try {
      (void)read_log<ProxyRecord>(blob_bytes(mutated));
    } catch (const util::ParseError&) {
      // expected for corrupted magic/frame/CRC bytes
    }
  }
}

// ---------------------------------------------------------------------------
// Columnar v3 corpus: corruption must stay row-group-granular (one counted
// block per injected fault, resync at the next group header), except the
// file-level dictionaries, whose damage quarantines the whole file.  Each
// test targets one failure class the format calls out: truncation, column
// CRC flips, out-of-range dictionary indices, varint overruns, impossible
// group headers.
// ---------------------------------------------------------------------------

/// A v3 proxy log of `records` records in row groups of `group_records`.
std::string valid_v3_log(std::size_t records, std::size_t group_records) {
  std::ostringstream out;
  (void)write_columnar_log(out, sample_proxy(records), fuzz_pools(),
                           group_records);
  return out.str();
}

/// File offset of the first group header: the 8-byte file header plus the
/// three dictionary sections (hosts, tacs, sectors).
std::size_t v3_chain_start(const std::string& blob) {
  std::size_t off = 8;
  for (int section = 0; section < 3; ++section) {
    std::uint32_t byte_length = 0;
    std::memcpy(&byte_length, blob.data() + off + 4, 4);
    off += kDictHeaderBytes + byte_length;
  }
  return off;
}

/// Group index of a complete v3 blob (header and dictionaries skipped).
UnitIndex v3_index_of(const std::string& blob) {
  return scan_units(blob_bytes(blob).subspan(v3_chain_start(blob)),
                    kBinaryFormatV3, /*lenient=*/true);
}

/// One column segment of a row group, addressed by file offset.
struct ColumnSegment {
  std::size_t header_offset = 0;   ///< [byte_length u32][crc32 u32].
  std::size_t payload_offset = 0;
  std::uint32_t byte_length = 0;
};

/// Walks the column segments of `group` (file offsets into `blob`).
std::vector<ColumnSegment> v3_columns_of(const std::string& blob,
                                         const LogUnit& group,
                                         std::size_t columns) {
  std::vector<ColumnSegment> segments;
  std::size_t off = v3_chain_start(blob) + group.payload_offset;
  for (std::size_t c = 0; c < columns; ++c) {
    std::uint32_t byte_length = 0;
    std::memcpy(&byte_length, blob.data() + off, 4);
    segments.push_back({off, off + kColumnHeaderBytes, byte_length});
    off += kColumnHeaderBytes + byte_length;
  }
  return segments;
}

/// Re-stamps one column segment's CRC after a payload edit, so the fault
/// under test is the decode failure itself, not the checksum.
void v3_restamp_crc(std::string& blob, const ColumnSegment& segment) {
  const std::uint32_t crc = util::crc32(
      blob_bytes(blob).subspan(segment.payload_offset, segment.byte_length));
  std::memcpy(blob.data() + segment.header_offset + 4, &crc, 4);
}

/// `sample` minus the records of row group `skip`.
Rows<ProxyRecord> without_group(const Rows<ProxyRecord>& sample,
                                const UnitIndex& index, std::size_t skip) {
  Rows<ProxyRecord> expect;
  std::size_t base = 0;
  for (std::size_t i = 0; i < index.units.size(); ++i) {
    const std::size_t n = index.units[i].record_count;
    if (i != skip) {
      expect.insert(expect.end(), sample.begin() + static_cast<long>(base),
                    sample.begin() + static_cast<long>(base + n));
    }
    base += n;
  }
  return expect;
}

TEST(FuzzV3, TruncationAtEveryOffsetHonorsGroupAccounting) {
  const std::string blob = valid_v3_log(64, 8);
  const std::size_t chain_start = v3_chain_start(blob);
  const UnitIndex index = v3_index_of(blob);
  ASSERT_EQ(index.units.size(), 8u);
  // File offset where each group ends, and records recovered up to it.
  std::vector<std::size_t> group_end;
  std::vector<std::size_t> records_before;
  std::size_t total = 0;
  for (const LogUnit& g : index.units) {
    total += g.record_count;
    group_end.push_back(chain_start + g.payload_offset + g.byte_length);
    records_before.push_back(total);
  }
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    const std::string prefix = blob.substr(0, cut);
    QuarantineStats q;
    Rows<ProxyRecord> got;
    ASSERT_NO_THROW(
        got = read_log_lenient<ProxyRecord>(blob_bytes(prefix), q))
        << "cut " << cut;
    expect_cursor_agrees(prefix, "cut " + std::to_string(cut));
    if (cut < chain_start) {
      // A truncated header or dictionary poisons every index in the file:
      // the whole file quarantines as one unit.
      EXPECT_EQ(q.corrupt_files, 1u) << "cut " << cut;
      EXPECT_TRUE(got.empty()) << "cut " << cut;
      continue;
    }
    std::size_t complete = 0;
    bool on_boundary = cut == chain_start;
    for (std::size_t i = 0; i < group_end.size(); ++i) {
      if (group_end[i] <= cut) complete = records_before[i];
      if (group_end[i] == cut) on_boundary = true;
    }
    // A cut on a group boundary just looks like a shorter log; anywhere
    // else exactly ONE group is lost to the broken chain.
    EXPECT_EQ(got.size(), complete) << "cut " << cut;
    EXPECT_EQ(q.corrupt_blocks, on_boundary ? 0u : 1u) << "cut " << cut;
    EXPECT_EQ(q.corrupt_files, 0u) << "cut " << cut;
    EXPECT_EQ(q.corrupt_tails, 0u) << "cut " << cut;
  }
}

TEST(FuzzV3, CorruptColumnCrcQuarantinesExactlyThatGroup) {
  const Rows<ProxyRecord> sample = sample_proxy(64);
  const std::string blob = valid_v3_log(64, 8);
  const UnitIndex index = v3_index_of(blob);
  const std::size_t columns = columnar_column_count<ProxyRecord>();
  for (std::size_t k = 0; k < index.units.size(); ++k) {
    // One flipped payload byte per trial, rotating through the columns so
    // every segment's CRC framing is exercised.
    const std::vector<ColumnSegment> segments =
        v3_columns_of(blob, index.units[k], columns);
    std::string mutated = blob;
    mutated[segments[k % columns].payload_offset] ^= 0x01;
    QuarantineStats q;
    Rows<ProxyRecord> got;
    ASSERT_NO_THROW(
        got = read_log_lenient<ProxyRecord>(blob_bytes(mutated), q))
        << "group " << k;
    expect_cursor_agrees(mutated, "group " + std::to_string(k));
    EXPECT_EQ(q.corrupt_blocks, 1u) << "group " << k;
    EXPECT_EQ(q.total_dropped(), 1u) << "group " << k;
    // Resync is exact: every OTHER group survives, in order.
    EXPECT_EQ(got, without_group(sample, index, k)) << "group " << k;
    // The strict reader must refuse what the lenient one quarantined.
    EXPECT_THROW((void)read_log<ProxyRecord>(blob_bytes(mutated)),
                 util::ParseError)
        << "group " << k;
  }
}

TEST(FuzzV3, DictIndexOutOfRangeQuarantinesTheGroup) {
  const Rows<ProxyRecord> sample = sample_proxy(64);
  const std::string blob = valid_v3_log(64, 8);
  const UnitIndex index = v3_index_of(blob);
  for (const std::size_t k : {std::size_t{0}, std::size_t{3}, std::size_t{7}}) {
    const std::vector<ColumnSegment> segments =
        v3_columns_of(blob, index.units[k],
                      columnar_column_count<ProxyRecord>());
    std::string mutated = blob;
    // Column 2 holds TAC dictionary indices; the sample has ONE distinct
    // TAC, so every byte is the one-byte varint 0x00.  0x7f is still a
    // valid one-byte varint but indexes far past the dictionary — with the
    // CRC restamped, the failure under test is the bound check itself.
    mutated[segments[2].payload_offset] = '\x7f';
    v3_restamp_crc(mutated, segments[2]);
    QuarantineStats q;
    Rows<ProxyRecord> got;
    ASSERT_NO_THROW(
        got = read_log_lenient<ProxyRecord>(blob_bytes(mutated), q))
        << "group " << k;
    expect_cursor_agrees(mutated, "group " + std::to_string(k));
    EXPECT_EQ(q.corrupt_blocks, 1u) << "group " << k;
    EXPECT_EQ(got, without_group(sample, index, k)) << "group " << k;
    EXPECT_THROW((void)read_log<ProxyRecord>(blob_bytes(mutated)),
                 util::ParseError)
        << "group " << k;
  }
}

TEST(FuzzV3, VarintOverrunQuarantinesTheGroup) {
  const Rows<ProxyRecord> sample = sample_proxy(64);
  const std::string blob = valid_v3_log(64, 8);
  const UnitIndex index = v3_index_of(blob);
  for (const std::size_t k : {std::size_t{0}, std::size_t{4}, std::size_t{7}}) {
    const std::vector<ColumnSegment> segments =
        v3_columns_of(blob, index.units[k],
                      columnar_column_count<ProxyRecord>());
    std::string mutated = blob;
    // Column 1 is plain user-id varints.  Setting the continuation bit on
    // the segment's LAST byte makes the final varint run off the end of
    // its frame; the restamped CRC passes, the decode must not.
    const ColumnSegment& users = segments[1];
    ASSERT_GT(users.byte_length, 0u);
    mutated[users.payload_offset + users.byte_length - 1] |=
        static_cast<char>(0x80);
    v3_restamp_crc(mutated, users);
    QuarantineStats q;
    Rows<ProxyRecord> got;
    ASSERT_NO_THROW(
        got = read_log_lenient<ProxyRecord>(blob_bytes(mutated), q))
        << "group " << k;
    expect_cursor_agrees(mutated, "group " + std::to_string(k));
    EXPECT_EQ(q.corrupt_blocks, 1u) << "group " << k;
    EXPECT_EQ(got, without_group(sample, index, k)) << "group " << k;
    EXPECT_THROW((void)read_log<ProxyRecord>(blob_bytes(mutated)),
                 util::ParseError)
        << "group " << k;
  }
}

TEST(FuzzV3, DictionaryDamageQuarantinesTheWholeFile) {
  const std::string blob = valid_v3_log(64, 8);
  // Flip one byte inside the hosts dictionary payload: every host index in
  // the file is now meaningless, so lenient reads must refuse to fabricate
  // hosts and quarantine the file, not a group.
  std::string mutated = blob;
  mutated[8 + kDictHeaderBytes] ^= 0x01;
  QuarantineStats q;
  Rows<ProxyRecord> got;
  ASSERT_NO_THROW(
      got = read_log_lenient<ProxyRecord>(blob_bytes(mutated), q));
  expect_cursor_agrees(mutated, "dictionary");
  EXPECT_EQ(q.corrupt_files, 1u);
  EXPECT_EQ(q.corrupt_blocks, 0u);
  EXPECT_TRUE(got.empty());
  EXPECT_THROW((void)read_log<ProxyRecord>(blob_bytes(mutated)),
               util::ParseError);
}

TEST(FuzzV3, DictionaryEntryCountBombIsBounded) {
  // The section CRC covers the payload, not the header: a hosts section
  // claiming 2^32-1 entries must fail as damage, not as a giant reserve.
  std::string mutated = valid_v3_log(64, 8);
  const std::uint32_t bomb = 0xffffffffu;
  std::memcpy(mutated.data() + 8, &bomb, 4);
  QuarantineStats q;
  Rows<ProxyRecord> got;
  ASSERT_NO_THROW(
      got = read_log_lenient<ProxyRecord>(blob_bytes(mutated), q));
  EXPECT_EQ(q.corrupt_files, 1u);
  EXPECT_TRUE(got.empty());
  expect_cursor_agrees(mutated, "entry-count bomb");
}

TEST(FuzzV3, ImpossibleRecordCountSkipsGroupAndResyncs) {
  const Rows<ProxyRecord> sample = sample_proxy(64);
  const std::string blob = valid_v3_log(64, 8);
  const std::size_t chain_start = v3_chain_start(blob);
  const UnitIndex index = v3_index_of(blob);
  for (std::size_t k = 0; k < index.units.size(); ++k) {
    std::string mutated = blob;
    // record_count > byte_length is impossible (every column costs at
    // least one byte per record); the group is skipped but byte_length
    // still chains to the next one.
    const std::uint32_t bogus = index.units[k].byte_length + 1;
    const std::size_t at =
        chain_start + index.units[k].payload_offset - kGroupHeaderBytes;
    std::memcpy(mutated.data() + at, &bogus, 4);
    QuarantineStats q;
    Rows<ProxyRecord> got;
    ASSERT_NO_THROW(
        got = read_log_lenient<ProxyRecord>(blob_bytes(mutated), q))
        << "group " << k;
    expect_cursor_agrees(mutated, "group " + std::to_string(k));
    EXPECT_EQ(q.corrupt_blocks, 1u) << "group " << k;
    EXPECT_EQ(got, without_group(sample, index, k)) << "group " << k;
  }
}

TEST(FuzzV3, ZeroRecordGroupParsesCleanly) {
  const Rows<ProxyRecord> sample = sample_proxy(64);
  const std::string blob = valid_v3_log(64, 8);
  const std::size_t chain_start = v3_chain_start(blob);
  const UnitIndex index = v3_index_of(blob);
  // Splice an empty group (0 records, one empty segment per column —
  // crc32("") == 0, so the whole thing is zero bytes except its
  // byte_length) between two real groups: a valid no-op, not corruption.
  const std::size_t columns = columnar_column_count<ProxyRecord>();
  std::string empty_group(kGroupHeaderBytes + columns * kColumnHeaderBytes,
                          '\0');
  const auto body_bytes =
      static_cast<std::uint32_t>(columns * kColumnHeaderBytes);
  std::memcpy(empty_group.data() + 4, &body_bytes, 4);
  const std::size_t at =
      chain_start + index.units[4].payload_offset - kGroupHeaderBytes;
  const std::string spliced =
      blob.substr(0, at) + empty_group + blob.substr(at);
  QuarantineStats q;
  Rows<ProxyRecord> lenient;
  ASSERT_NO_THROW(
      lenient = read_log_lenient<ProxyRecord>(blob_bytes(spliced), q));
  expect_cursor_agrees(spliced, "spliced");
  EXPECT_EQ(lenient, sample);
  EXPECT_FALSE(q.any());
  EXPECT_EQ(read_log<ProxyRecord>(blob_bytes(spliced)), sample);
}

TEST(FuzzV3, SingleByteFlipsNeverCrashLenient) {
  const std::string blob = valid_v3_log(48, 8);
  const std::uint64_t seed = testing::seed_or(0xC01A);
  WEARSCOPE_SCOPED_SEED(seed);
  util::Pcg32 rng(seed);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = blob;
    const auto pos = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(mutated.size()) - 1));
    mutated[pos] = static_cast<char>(rng.uniform_int(0, 255));
    QuarantineStats q;
    Rows<ProxyRecord> got;
    // Lenient reads never throw — corruption lands in `q`, not exceptions.
    ASSERT_NO_THROW(
        got = read_log_lenient<ProxyRecord>(blob_bytes(mutated), q))
        << "trial " << trial;
    expect_cursor_agrees(mutated, "trial " + std::to_string(trial));
    EXPECT_LE(got.size(), 48u) << "trial " << trial;
    try {
      (void)read_log<ProxyRecord>(blob_bytes(mutated));
    } catch (const util::ParseError&) {
      // expected for corrupted header/dictionary/group bytes
    }
  }
}

// ---- Federation wire format (fed/partial_io.h, WSFD v1) -----------------
//
// Same hostile-input rule as the trace formats: strict readers throw
// util::ParseError, the lenient reader never throws and accounts damage
// with section granularity, and a tampered cover is a merge-level hard
// error (util::ConfigError) — never a silently undercounted snapshot.

/// A small but fully populated partial: one-shard engine, a handful of
/// users across both halves of a 2-way shard split, app + sector + MME
/// traffic so every section carries real payload.  Built once.
fed::PartialSnapshot sample_partial() {
  static const fed::PartialSnapshot partial = [] {
    live::LiveOptions opt;
    opt.shards = 1;
    opt.ring_capacity = 512;
    opt.long_tail_apps = 20;
    opt.capture_tallies = true;
    std::vector<DeviceRecord> devices;
    devices.push_back({35254208, "Gear S3 frontier LTE", "Samsung", "Tizen"});
    ProxyPools pools;
    live::LiveEngine engine(devices, opt);
    engine.bind_hosts(pools.hosts);
    static constexpr const char* kHosts[] = {
        "api.weather.example", "sync.fit.example", "voice.assist.example"};
    for (const char* host : kHosts) (void)pools.hosts.intern(host);
    for (std::size_t i = 0; i < 160; ++i) {
      ProxyRecord p;
      p.timestamp = static_cast<util::SimTime>(i * 53);
      p.user_id = 1'000'000 + i % 9;
      p.tac = 35254208;
      p.protocol = i % 2 == 0 ? Protocol::kHttps : Protocol::kHttp;
      testing::set_strings(p, pools, kHosts[i % 3]);
      p.bytes_up = i * 17;
      p.bytes_down = i * 129 + 1;
      p.duration_ms = static_cast<std::uint32_t>(i + 1);
      engine.push(p);
      if (i % 4 == 0) {
        MmeRecord m;
        m.timestamp = static_cast<util::SimTime>(i * 53 + 1);
        m.user_id = 1'000'000 + i % 9;
        m.tac = 35254208;
        m.event = MmeEvent::kAttach;
        m.sector_id = static_cast<SectorId>(1 + i % 5);
        engine.push(m);
      }
    }
    return fed::make_partial(engine.stop(), opt);
  }();
  return partial;
}

/// One section's byte extent inside an encoded partial.
struct SectionSpan {
  std::uint32_t id = 0;
  std::size_t payload_begin = 0;  ///< First payload byte.
  std::size_t end = 0;            ///< One past the payload.
};

/// Walks the section chain of a well-formed encoded partial.
std::vector<SectionSpan> scan_spans(const std::string& blob) {
  std::vector<SectionSpan> spans;
  std::size_t off = fed::kPartialFileHeaderBytes;
  while (off + fed::kSectionHeaderBytes <= blob.size()) {
    util::MemorySpanDecoder dec(
        blob_bytes(blob).subspan(off, fed::kSectionHeaderBytes));
    SectionSpan s;
    s.id = dec.get_u32();
    const std::uint32_t byte_length = dec.get_u32();
    s.payload_begin = off + fed::kSectionHeaderBytes;
    s.end = s.payload_begin + byte_length;
    spans.push_back(s);
    off = s.end;
  }
  return spans;
}

/// Round-trips each partial through encode + strict decode, as
/// wearscope_merge would load it off disk.
std::vector<fed::LoadedPartial> loaded_from(
    const std::vector<fed::PartialSnapshot>& parts) {
  std::vector<fed::LoadedPartial> out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const std::string blob = fed::encode_partial(parts[i]);
    fed::LoadedPartial lp;
    lp.partial = fed::decode_partial(blob_bytes(blob));
    lp.path = "mem:part" + std::to_string(i);
    out.push_back(std::move(lp));
  }
  return out;
}

TEST(FuzzFed, TruncationAtEveryOffsetHonorsSectionAccounting) {
  const std::string blob = fed::encode_partial(sample_partial());
  const std::vector<SectionSpan> spans = scan_spans(blob);
  ASSERT_GE(spans.size(), 2u);
  ASSERT_EQ(spans.front().id,
            static_cast<std::uint32_t>(fed::SectionId::kPartition));
  ASSERT_EQ(spans.back().end, blob.size());
  // Sketch mode is off, so the expected set is every non-partition
  // section the writer emitted.
  const std::uint64_t expected_total = spans.size() - 1;
  const std::size_t header_end = spans.front().end;

  for (std::size_t cut = 0; cut <= blob.size(); ++cut) {
    const std::string prefix = blob.substr(0, cut);
    QuarantineStats q;
    std::optional<fed::PartialSnapshot> got;
    ASSERT_NO_THROW(got = fed::read_partial_lenient(blob_bytes(prefix), q))
        << "cut " << cut;
    if (cut < header_end) {
      // The cover metadata is the file's meaning: reject wholesale.
      EXPECT_FALSE(got.has_value()) << "cut " << cut;
      EXPECT_EQ(q.corrupt_files, 1u) << "cut " << cut;
      EXPECT_EQ(q.corrupt_blocks, 0u) << "cut " << cut;
    } else {
      // Past the partition header every fully present section is
      // recovered and each truncated-away one counts exactly one block.
      std::uint64_t survived = 0;
      for (std::size_t i = 1; i < spans.size(); ++i) {
        if (spans[i].end <= cut) ++survived;
      }
      ASSERT_TRUE(got.has_value()) << "cut " << cut;
      EXPECT_EQ(q.corrupt_files, 0u) << "cut " << cut;
      EXPECT_EQ(q.corrupt_blocks, expected_total - survived) << "cut " << cut;
    }
    if (cut < blob.size()) {
      EXPECT_THROW((void)fed::decode_partial(blob_bytes(prefix)),
                   util::ParseError)
          << "cut " << cut;
    }
  }
}

TEST(FuzzFed, PerSectionCrcFlipIsSectionGranular) {
  const std::string blob = fed::encode_partial(sample_partial());
  for (const SectionSpan& s : scan_spans(blob)) {
    ASSERT_LT(s.payload_begin, s.end) << "empty section " << s.id;
    std::string mutated = blob;
    mutated[s.payload_begin] =
        static_cast<char>(mutated[s.payload_begin] ^ 0x5A);
    // Strict: any CRC mismatch is fatal.
    EXPECT_THROW((void)fed::decode_partial(blob_bytes(mutated)),
                 util::ParseError)
        << "section " << s.id;
    // Lenient: a broken partition header rejects the file; any other
    // broken section costs exactly that one section.
    QuarantineStats q;
    std::optional<fed::PartialSnapshot> got;
    ASSERT_NO_THROW(got = fed::read_partial_lenient(blob_bytes(mutated), q))
        << "section " << s.id;
    if (s.id == static_cast<std::uint32_t>(fed::SectionId::kPartition)) {
      EXPECT_FALSE(got.has_value());
      EXPECT_EQ(q.corrupt_files, 1u) << "section " << s.id;
      EXPECT_EQ(q.corrupt_blocks, 0u) << "section " << s.id;
    } else {
      ASSERT_TRUE(got.has_value()) << "section " << s.id;
      EXPECT_EQ(q.corrupt_files, 0u) << "section " << s.id;
      EXPECT_EQ(q.corrupt_blocks, 1u) << "section " << s.id;
    }
  }
}

TEST(FuzzFed, TamperedCoversAreHardErrors) {
  const fed::PartialSnapshot base = sample_partial();
  // Control: the untampered singleton cover merges cleanly.
  ASSERT_NO_THROW((void)fed::merge_partials(loaded_from({base})));

  // A claimed partition_count with no matching cover is incomplete.
  fed::PartialSnapshot claims_two = base;
  claims_two.header.partition_count = 2;
  EXPECT_THROW((void)fed::merge_partials(loaded_from({claims_two})),
               util::ConfigError);

  // partition_count must agree across the cover.
  fed::PartialSnapshot other = base;
  other.header.partition_id = 1;
  other.header.partition_count = 2;
  EXPECT_THROW((void)fed::merge_partials(loaded_from({base, other})),
               util::ConfigError);

  // Duplicate partition ids.
  fed::PartialSnapshot dup = base;
  dup.header.partition_count = 2;
  EXPECT_THROW((void)fed::merge_partials(loaded_from({dup, dup})),
               util::ConfigError);

  // Overlapping user ranges: both halves claim the full population (the
  // records fields are split so the tile check alone cannot save us —
  // the per-user ownership invariant has to catch it).
  fed::PartialSnapshot left = base;
  left.header.partition_count = 2;
  left.header.records = base.header.records / 2;
  fed::PartialSnapshot right = base;
  right.header.partition_id = 1;
  right.header.partition_count = 2;
  right.header.records = base.header.records - base.header.records / 2;
  EXPECT_THROW((void)fed::merge_partials(loaded_from({left, right})),
               util::ConfigError);
}

TEST(FuzzFed, SingleByteFlipsNeverCrashLenient) {
  const std::string blob = fed::encode_partial(sample_partial());
  const std::uint64_t seed = testing::seed_or(0xFED5);
  WEARSCOPE_SCOPED_SEED(seed);
  util::Pcg32 rng(seed);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = blob;
    const auto pos = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(mutated.size()) - 1));
    mutated[pos] = static_cast<char>(rng.uniform_int(0, 255));
    QuarantineStats q;
    std::optional<fed::PartialSnapshot> got;
    ASSERT_NO_THROW(got = fed::read_partial_lenient(blob_bytes(mutated), q))
        << "trial " << trial;
    if (mutated == blob) {
      EXPECT_TRUE(got.has_value()) << "trial " << trial;
      EXPECT_EQ(q.total_dropped(), 0u) << "trial " << trial;
    }
    // The operator-facing audit path must also survive anything.
    ASSERT_NO_THROW((void)fed::audit_partial(blob_bytes(mutated)))
        << "trial " << trial;
    try {
      (void)fed::decode_partial(blob_bytes(mutated));
      // Accepted flips exist (the reserved file-header bytes); anything
      // strict accepts must merge-load without crashing too.
    } catch (const util::ParseError&) {
      // expected for damaged framing/CRC/checksum bytes
    }
  }
}

/// Re-stamps every section CRC and the partition header's payload_checksum
/// of an edited partial, so only the edit itself is left to catch.
void reseal_partial(std::string& blob) {
  const std::vector<SectionSpan> spans = scan_spans(blob);
  const auto put_u32 = [&blob](std::size_t at, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) {
      blob[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
    }
  };
  const auto crc_of = [&blob](const SectionSpan& s) {
    return util::crc32(
        blob_bytes(blob).subspan(s.payload_begin, s.end - s.payload_begin));
  };
  std::uint64_t fold = fed::kPartialMagic;
  for (std::size_t i = 1; i < spans.size(); ++i) {
    const std::uint32_t crc = crc_of(spans[i]);
    put_u32(spans[i].payload_begin - 4, crc);
    fold = util::splitmix64(fold ^ ((std::uint64_t{spans[i].id} << 32) | crc));
  }
  // payload_checksum is the partition header's last field.
  const std::size_t checksum_at = spans.front().end - 8;
  put_u32(checksum_at, static_cast<std::uint32_t>(fold));
  put_u32(checksum_at + 4, static_cast<std::uint32_t>(fold >> 32));
  put_u32(spans.front().payload_begin - 4, crc_of(spans.front()));
}

TEST(FuzzFed, RepeatedMapKeyIsRejected) {
  // Two users with empty activity: each entry is its u64 id plus three
  // zero-length maps, 32 bytes, after the 24-byte section preamble.
  fed::PartialSnapshot partial;
  partial.tallies.activity.users[5];
  partial.tallies.activity.users[9];
  std::string blob = fed::encode_partial(partial);
  const std::vector<SectionSpan> spans = scan_spans(blob);
  const auto activity = std::find_if(
      spans.begin(), spans.end(), [](const SectionSpan& s) {
        return s.id == static_cast<std::uint32_t>(fed::SectionId::kActivity);
      });
  ASSERT_NE(activity, spans.end());
  ASSERT_EQ(activity->end - activity->payload_begin, 24u + 2 * 32 + 2 * 8);
  const std::size_t first_user = activity->payload_begin + 24;
  ASSERT_EQ(blob[first_user], 5);
  ASSERT_EQ(blob[first_user + 32], 9);
  blob[first_user + 32] = 5;  // user 5 twice
  reseal_partial(blob);

  EXPECT_THROW((void)fed::decode_partial(blob_bytes(blob)), util::ParseError);
  QuarantineStats q;
  const std::optional<fed::PartialSnapshot> got =
      fed::read_partial_lenient(blob_bytes(blob), q);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(q.corrupt_blocks, 1u);
  EXPECT_EQ(q.corrupt_files, 0u);
  EXPECT_TRUE(got->tallies.activity.users.empty());

  // The resealing itself is sound: the unedited bytes still decode.
  blob[first_user + 32] = 9;
  reseal_partial(blob);
  EXPECT_EQ(fed::decode_partial(blob_bytes(blob)).tallies.activity.users.size(),
            2u);
}

TEST(FuzzFed, AdoptionTallyMustCoverItsWindow) {
  // AdoptionTally::finalize() indexes daily_counts by its window's first
  // and last week, and the first merge copies a tally unchecked, so a
  // tally that does not cover the partition's window is section damage.
  const fed::PartialSnapshot base = sample_partial();
  ASSERT_EQ(base.tallies.adoption.observation_days,
            base.header.observation_days);
  ASSERT_EQ(base.tallies.adoption.daily_counts.size(),
            static_cast<std::size_t>(base.header.observation_days));
  const auto expect_adoption_rejected = [](const std::string& blob) {
    EXPECT_THROW((void)fed::decode_partial(blob_bytes(blob)),
                 util::ParseError);
    QuarantineStats q;
    const std::optional<fed::PartialSnapshot> got =
        fed::read_partial_lenient(blob_bytes(blob), q);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(q.corrupt_blocks, 1u);
    EXPECT_EQ(q.corrupt_files, 0u);
    EXPECT_TRUE(got->tallies.adoption.daily_counts.empty());
  };

  // Three daily counts for a multi-week window.
  fed::PartialSnapshot short_counts = base;
  short_counts.tallies.adoption.daily_counts.resize(3);
  expect_adoption_rejected(fed::encode_partial(short_counts));

  // A consistent tally whose window is not the partition header's: the
  // header's observation_days (i64 after two u32s and three u64s) is
  // edited and the file resealed.
  std::string blob = fed::encode_partial(base);
  const std::size_t days_at = scan_spans(blob).front().payload_begin + 32;
  ASSERT_EQ(static_cast<int>(static_cast<unsigned char>(blob[days_at])),
            base.header.observation_days);
  blob[days_at] = static_cast<char>(blob[days_at] + 1);
  reseal_partial(blob);
  expect_adoption_rejected(blob);

  // The resealing itself is sound: the unedited bytes still decode.
  blob[days_at] = static_cast<char>(blob[days_at] - 1);
  reseal_partial(blob);
  EXPECT_EQ(fed::decode_partial(blob_bytes(blob)).tallies.adoption.daily_counts,
            base.tallies.adoption.daily_counts);
}

TEST(FuzzChaosCorpus, StrictReaderRejectsEveryExactFault) {
  // The strict reader path must refuse what the lenient path quarantines:
  // an exact fault that drops records must surface as ParseError there.
  const chaos::BinaryImage image =
      chaos::image_of<ProxyRecord>(legacy_log("v1", "proxy.bin"));
  const chaos::FaultPlan plan(99, chaos::FaultProfile::named("io"));
  for (const chaos::ByteFault& fault : plan.byte_corpus(image, true)) {
    if (!fault.exact ||
        fault.expected_survivors == image.record_offsets.size())
      continue;
    EXPECT_THROW((void)drain_binary<ProxyRecord>(fault.bytes),
                 util::ParseError);
  }
}

}  // namespace
}  // namespace wearscope::trace
