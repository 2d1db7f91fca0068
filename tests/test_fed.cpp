// Federation tests: the WSFD partial-snapshot format round-trips exactly,
// the cover validation rejects every malformed cover hard, the federated
// merge of N user-disjoint partitions reproduces the single-process
// snapshot bitwise, and the streaming partition-feed loader is
// indistinguishable from materializing the whole store.
#include "fed/merge.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "fed/feed_filter.h"
#include "fed/partial_io.h"
#include "legacy_fixtures.h"
#include "live/engine.h"
#include "live/replayer.h"
#include "row_oracle.h"
#include "serve/reference.h"
#include "simnet/simulator.h"
#include "trace/bundle.h"
#include "trace/columnar_io.h"
#include "trace/log_reader.h"
#include "trace/sanitize.h"
#include "util/byte_codec.h"
#include "util/crc32.h"
#include "util/error.h"

namespace wearscope::fed {
namespace {

const simnet::SimResult& capture() {
  static const simnet::SimResult sim = [] {
    simnet::SimConfig cfg = simnet::SimConfig::small();
    cfg.seed = 31;
    return simnet::Simulator(cfg).run();
  }();
  return sim;
}

live::LiveOptions partition_options(std::size_t partition_id,
                                    std::size_t partition_count) {
  const simnet::SimResult& sim = capture();
  live::LiveOptions opt;
  opt.shards = 2;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.detailed_start_day;
  opt.long_tail_apps = sim.config.long_tail_apps;
  opt.partition_id = partition_id;
  opt.partition_count = partition_count;
  opt.capture_tallies = true;
  return opt;
}

/// Runs one partition over the shared capture via the full-store replay.
PartialSnapshot run_partition(std::size_t partition_id,
                              std::size_t partition_count) {
  const simnet::SimResult& sim = capture();
  const live::LiveOptions opt =
      partition_options(partition_id, partition_count);
  live::LiveEngine engine(sim.store.devices, opt);
  const live::FeedReplayer replayer(sim.store, live::ReplayOptions{});
  (void)replayer.replay(engine);
  return make_partial(engine.stop(), opt);
}

std::vector<LoadedPartial> cover(std::size_t partitions) {
  std::vector<LoadedPartial> parts;
  for (std::size_t i = 0; i < partitions; ++i) {
    parts.push_back(
        LoadedPartial{run_partition(i, partitions),
                      "part" + std::to_string(i) + "of" +
                          std::to_string(partitions)});
  }
  return parts;
}

std::span<const std::byte> bytes_of(const std::string& blob) {
  return std::as_bytes(std::span(blob.data(), blob.size()));
}

/// Scoped temp directory for file round trips.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("wearscope_test_fed_" + tag + "_" +
              std::to_string(::getpid()))) {
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Rows per row group of the v3 bundles below: small, so each log holds
/// dozens of units, far more than a decoder may run ahead of the merge.
constexpr std::size_t kSmallUnit = 61;

template <typename Log>
void write_small_units(const Log& rows, const trace::ProxyPools& pools,
                       const std::filesystem::path& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  (void)trace::write_columnar_log(out, rows, pools, kSmallUnit);
}

/// Saves `store` as a v3 bundle whose proxy and MME logs hold
/// kSmallUnit-row groups.
void save_small_unit_bundle(const trace::TraceStore& store,
                            const std::filesystem::path& dir) {
  trace::save_bundle(store, dir);
  write_small_units(store.proxy, store, dir / "proxy.bin");
  write_small_units(store.mme, store, dir / "mme.bin");
}

/// The store the legacy fixtures hold (legacy_fixtures.h).
const trace::TraceStore& fixed_store() {
  static const trace::TraceStore store = testing::fixed_store();
  return store;
}

/// Where each unit of a whole v2 or v3 log sits: its header offset in the
/// file and its header as the chain scan read it.
struct UnitSpan {
  std::size_t at = 0;
  trace::LogUnit unit;
};

std::vector<UnitSpan> units_of(const std::string& file,
                               std::uint16_t format) {
  const std::span<const std::byte> bytes = bytes_of(file);
  std::size_t chain_at = 8;
  if (format == trace::kBinaryFormatV3) {
    util::MemorySpanDecoder dec(bytes.subspan(chain_at));
    trace::ColumnDicts dicts;
    (void)trace::parse_column_dicts(dec, /*lenient=*/false, dicts);
    chain_at += static_cast<std::size_t>(dec.offset());
  }
  const std::size_t header = format == trace::kBinaryFormatV3
                                 ? trace::kGroupHeaderBytes
                                 : trace::kFrameHeaderBytes;
  std::vector<UnitSpan> spans;
  for (const trace::LogUnit& unit :
       trace::scan_units(bytes.subspan(chain_at), format, false).units) {
    spans.push_back({chain_at + unit.payload_offset - header, unit});
  }
  return spans;
}

/// A well-formed unit that holds no records.
template <typename Record>
std::string empty_unit(std::uint16_t format) {
  std::string out;
  util::BufferEncoder enc(out);
  const std::uint32_t no_bytes_crc = util::crc32({});
  enc.put_u32(0);
  if (format == trace::kBinaryFormatV2) {
    enc.put_u32(0);
    enc.put_u32(no_bytes_crc);
    return out;
  }
  const std::size_t columns = trace::columnar_column_count<Record>();
  enc.put_u32(static_cast<std::uint32_t>(columns * trace::kColumnHeaderBytes));
  for (std::size_t c = 0; c < columns; ++c) {
    enc.put_u32(0);
    enc.put_u32(no_bytes_crc);
  }
  return out;
}

/// Splices an empty unit in before the middle unit of the log at `path`.
template <typename Record>
void splice_empty_unit(const std::filesystem::path& path,
                       std::uint16_t format) {
  std::string file = read_file(path);
  const std::vector<UnitSpan> units = units_of(file, format);
  ASSERT_GE(units.size(), 2u);
  file.insert(units[units.size() / 2].at, empty_unit<Record>(format));
  write_file(path, file);
}

TEST(FedPartial, EncodeDecodeRoundTripIsBitwise) {
  const PartialSnapshot partial = run_partition(0, 2);
  const std::string blob = encode_partial(partial);
  const PartialSnapshot decoded = decode_partial(bytes_of(blob));
  // The writer seals payload_checksum at encode time; the in-memory
  // partial carries 0 until then.
  PartitionHeader expected = partial.header;
  expected.payload_checksum = decoded.header.payload_checksum;
  EXPECT_NE(decoded.header.payload_checksum, 0u);
  EXPECT_EQ(decoded.header, expected);
  EXPECT_EQ(decoded.feed_quarantine, partial.feed_quarantine);
  // The encoding is a pure function of the logical state, so re-encoding
  // the decode proves the tallies round-tripped exactly.
  EXPECT_EQ(encode_partial(decoded), blob);
}

TEST(FedPartial, FileRoundTripThroughTempRename) {
  const TempDir dir("roundtrip");
  const PartialSnapshot partial = run_partition(1, 2);
  const std::filesystem::path path =
      dir.path / partial_file_name(1, 2, partial.header.epoch);
  write_partial_file(path, partial);
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
  const PartialSnapshot loaded = read_partial_file(path);
  EXPECT_EQ(encode_partial(loaded), encode_partial(partial));
}

TEST(FedPartial, StrictDecodeRejectsDamage) {
  const std::string blob = encode_partial(run_partition(0, 2));
  // Bad magic.
  std::string bad = blob;
  bad[0] = 'X';
  EXPECT_THROW((void)decode_partial(bytes_of(bad)), util::ParseError);
  // Truncated section chain.
  EXPECT_THROW((void)decode_partial(bytes_of(blob.substr(0, blob.size() - 3))),
               util::ParseError);
  // One flipped payload byte breaks that section's CRC.
  bad = blob;
  bad[blob.size() - 1] = static_cast<char>(bad[blob.size() - 1] ^ 0x40);
  EXPECT_THROW((void)decode_partial(bytes_of(bad)), util::ParseError);
}

TEST(FedMerge, FederatedEqualsSingleProcessAcrossPartitionCounts) {
  const simnet::SimResult& sim = capture();
  const PartialSnapshot single = run_partition(0, 1);
  for (const std::size_t partitions : {1u, 2u, 4u, 8u}) {
    MergeResult merged = merge_partials(cover(partitions));
    EXPECT_EQ(merged.merged_partitions, partitions);
    EXPECT_EQ(merged.snapshot.records, single.header.records);
    EXPECT_EQ(merged.snapshot.feed_records, single.header.feed_records);
    // The federated tallies must BE the single-process tallies: finalize
    // is deterministic, so exact double equality holds or the merge is
    // wrong.
    const std::vector<serve::VerifyMismatch> mismatches =
        serve::verify_responses(merged.snapshot, sim.store, merged.options,
                                trace::QuarantineStats{});
    for (const serve::VerifyMismatch& m : mismatches) {
      ADD_FAILURE() << partitions << "-way " << m.query << ": federated="
                    << m.serve << " batch=" << m.batch;
    }
  }
}

TEST(FedMerge, MergesAPartialWithUnsortedTxnSizes) {
  // Partials from before the shards kept their size samples sorted hold
  // them in arrival order; the merge concatenates such a side and finalize
  // sorts, so the answer stays the single-process one bitwise.
  const simnet::SimResult& sim = capture();
  std::vector<LoadedPartial> parts = cover(2);
  std::vector<double>& sizes = parts[0].partial.tallies.activity.txn_sizes;
  ASSERT_GT(sizes.size(), 1u);
  ASSERT_TRUE(std::is_sorted(sizes.begin(), sizes.end()));
  std::mt19937_64 rng(3);
  std::shuffle(sizes.begin(), sizes.end(), rng);
  ASSERT_FALSE(std::is_sorted(sizes.begin(), sizes.end()));
  // Written and read back, as a partial file on disk would be.
  parts[0].partial = decode_partial(bytes_of(encode_partial(parts[0].partial)));

  const MergeResult merged = merge_partials(std::move(parts));
  const std::vector<serve::VerifyMismatch> mismatches =
      serve::verify_responses(merged.snapshot, sim.store, merged.options,
                              trace::QuarantineStats{});
  for (const serve::VerifyMismatch& m : mismatches) {
    ADD_FAILURE() << m.query << ": federated=" << m.serve
                  << " batch=" << m.batch;
  }
  const MergeResult sorted = merge_partials(cover(2));
  EXPECT_EQ(merged.snapshot.activity.txn_size_bytes.sorted(),
            sorted.snapshot.activity.txn_size_bytes.sorted());
  EXPECT_EQ(merged.snapshot.activity.mean_txn_bytes,
            sorted.snapshot.activity.mean_txn_bytes);
}

TEST(FedMerge, RejectsIncompleteCover) {
  std::vector<LoadedPartial> parts = cover(2);
  parts.pop_back();
  EXPECT_THROW((void)merge_partials(std::move(parts)), util::ConfigError);
}

TEST(FedMerge, RejectsMismatchedPartitionCount) {
  std::vector<LoadedPartial> parts = cover(2);
  parts[1].partial.header.partition_count = 4;
  EXPECT_THROW((void)merge_partials(std::move(parts)), util::ConfigError);
}

TEST(FedMerge, RejectsDuplicatePartitionIds) {
  std::vector<LoadedPartial> parts = cover(2);
  parts[1] = parts[0];
  EXPECT_THROW((void)merge_partials(std::move(parts)), util::ConfigError);
}

TEST(FedMerge, RejectsForeignUsers) {
  // Swap the partition labels: ids {0, 1} are both present and every
  // header field agrees, but each partial now claims users that hash into
  // the other partition — only the per-user ownership check catches it.
  std::vector<LoadedPartial> parts = cover(2);
  parts[0].partial.header.partition_id = 1;
  parts[1].partial.header.partition_id = 0;
  std::swap(parts[0], parts[1]);
  EXPECT_THROW((void)merge_partials(std::move(parts)), util::ConfigError);
}

TEST(FedMerge, RejectsCoverThatDoesNotTileTheFeed) {
  std::vector<LoadedPartial> parts = cover(2);
  parts[1].partial.header.records -= 1;
  EXPECT_THROW((void)merge_partials(std::move(parts)), util::ConfigError);
}

TEST(FedMerge, RejectsMismatchedFeeds) {
  std::vector<LoadedPartial> parts = cover(2);
  parts[1].partial.header.feed_records += 1;
  EXPECT_THROW((void)merge_partials(std::move(parts)), util::ConfigError);
}

TEST(FedMerge, LoadPartialsIsThreadCountInvariant) {
  const TempDir dir("load");
  std::vector<std::filesystem::path> paths;
  for (std::size_t i = 0; i < 4; ++i) {
    const PartialSnapshot partial = run_partition(i, 4);
    paths.push_back(dir.path / partial_file_name(static_cast<std::uint32_t>(i),
                                                 4, partial.header.epoch));
    write_partial_file(paths.back(), partial);
  }
  const std::vector<LoadedPartial> base = load_partials(paths, 1);
  ASSERT_EQ(base.size(), 4u);
  for (const std::size_t threads : {2u, 4u}) {
    const std::vector<LoadedPartial> got = load_partials(paths, threads);
    ASSERT_EQ(got.size(), base.size()) << threads << " loader threads";
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].path, base[i].path);
      EXPECT_EQ(encode_partial(got[i].partial),
                encode_partial(base[i].partial))
          << threads << " loader threads, partial " << i;
    }
  }
  const MergeResult merged = merge_partials(load_partials(paths, 4));
  EXPECT_EQ(merged.merged_partitions, 4u);
}

TEST(FedMerge, ChaosQuarantineAccountingCarriesThrough) {
  // Every partition of one cover replays the same sanitized feed and
  // reports identical feed-side quarantine; the merge carries one copy.
  const simnet::SimResult& sim = capture();
  trace::TraceStore store = sim.store;
  trace::sanitize_store(store);
  // Damage the copy deterministically: blank a few proxy hosts, which the
  // sanitizer quarantines as bad_host drops.
  for (std::size_t i = 0; i < store.proxy.size(); i += 97) {
    store.proxy[i].host_id = store.hosts.intern("");
  }
  const trace::QuarantineStats expected = trace::sanitize_store(store);
  ASSERT_GT(expected.total_dropped(), 0u);
  store.sort_by_time();

  std::vector<LoadedPartial> parts;
  for (std::size_t i = 0; i < 2; ++i) {
    const live::LiveOptions opt = partition_options(i, 2);
    live::LiveEngine engine(store.devices, opt);
    engine.add_quarantine(expected);
    const live::FeedReplayer replayer(store, live::ReplayOptions{});
    (void)replayer.replay(engine);
    parts.push_back(LoadedPartial{make_partial(engine.stop(), opt), "mem"});
  }
  const MergeResult merged = merge_partials(std::move(parts));
  EXPECT_EQ(merged.snapshot.quarantine, expected);
}

/// Streams every partition of 3 from the bundle in `dir`, which holds
/// `store`, and checks each partial against a full-store replay of it.
void expect_streamed_matches_full(const std::filesystem::path& dir,
                                  const trace::TraceStore& store,
                                  const std::string& what) {
  ASSERT_TRUE(store.is_sorted()) << what;
  for (std::size_t partition = 0; partition < 3; ++partition) {
    const live::LiveOptions opt = partition_options(partition, 3);
    const PartitionFeed feed = load_partition_feed(dir, partition, 3);
    EXPECT_EQ(feed.feed_records, store.proxy.size() + store.mme.size())
        << what;
    live::LiveEngine engine(feed.devices, opt);
    replay_partition_feed(feed, engine);
    const PartialSnapshot streamed = make_partial(engine.stop(), opt);

    live::LiveEngine full(store.devices, opt);
    const live::FeedReplayer replayer(store, live::ReplayOptions{});
    (void)replayer.replay(full);
    const PartialSnapshot materialized = make_partial(full.stop(), opt);

    EXPECT_EQ(encode_partial(streamed), encode_partial(materialized))
        << what << " partition " << partition;
  }
}

TEST(FedStream, StreamedFeedMatchesFullStoreBitwise) {
  const TempDir dir("stream_v3");
  trace::save_bundle(capture().store, dir.path);
  expect_streamed_matches_full(dir.path, capture().store, "v3");
  // The v2 reader's cursor: the v2_units fixture bundle.
  const TempDir v2("stream_v2");
  testing::copy_units_bundle(v2.path);
  expect_streamed_matches_full(v2.path, fixed_store(), "v2");
}

/// The capture cut at its 20,000th proxy row (MME cut at the same stamp):
/// hundreds of kSmallUnit-row units per log, and a load takes
/// milliseconds, so the tests below can load it many times over.
const trace::TraceStore& capture_prefix() {
  static const trace::TraceStore store = [] {
    const trace::TraceStore& full = capture().store;
    trace::TraceStore s;
    static_cast<trace::ProxyPools&>(s) = full;
    s.devices = full.devices;
    s.sectors = full.sectors;
    const util::SimTime end = full.proxy.at(20000).timestamp;
    for (const trace::ProxyRecord& r : full.proxy) {
      if (r.timestamp < end) s.proxy.push_back(r);
    }
    for (const trace::MmeRecord& r : full.mme) {
      if (r.timestamp < end) s.mme.push_back(r);
    }
    return s;
  }();
  return store;
}

/// Fills `dir` with a `format` bundle of many small units per event log and
/// returns the store it holds: for v3, capture_prefix() in kSmallUnit-row
/// groups; for v2, the v2_units fixture bundle (fixed_store(), one row per
/// block: 40 proxy and 30 MME units).
const trace::TraceStore& units_bundle(const std::filesystem::path& dir,
                                      std::uint16_t format) {
  if (format == trace::kBinaryFormatV2) {
    testing::copy_units_bundle(dir);
    return fixed_store();
  }
  save_small_unit_bundle(capture_prefix(), dir);
  return capture_prefix();
}

/// Decode-lane counts the tests sweep: one lane (the pipeline every other
/// count shares), the 4-core default, and more lanes than any log needs.
constexpr std::size_t kLaneCounts[] = {1, 2, 3, 8};

detail::FeedLanes lanes_of(std::size_t lanes) { return {lanes, lanes}; }

TEST(FedStream, PipelinedFeedMatchesSequentialOracle) {
  for (const std::uint16_t format :
       {trace::kBinaryFormatV2, trace::kBinaryFormatV3}) {
    const TempDir dir("oracle_v" + std::to_string(format));
    const trace::TraceStore& store = units_bundle(dir.path, format);
    splice_empty_unit<trace::ProxyRecord>(dir.path / "proxy.bin", format);
    splice_empty_unit<trace::MmeRecord>(dir.path / "mme.bin", format);
    // The spliced logs are many units long and still decode to the store.
    const std::string proxy_file = read_file(dir.path / "proxy.bin");
    ASSERT_GT(units_of(proxy_file, format).size(), 20u);
    trace::ProxyPools pools;
    trace::Rows<trace::ProxyRecord> proxy =
        trace::read_binary_log<trace::ProxyRecord>(bytes_of(proxy_file),
                                                   pools);
    trace::ProxyPools store_pools = store;  // holds every string already
    trace::remap_ids(proxy, pools, store_pools);
    ASSERT_EQ(proxy, store.proxy) << "v" << format;

    for (const std::size_t n : {1u, 2u, 3u, 5u}) {
      for (std::size_t id = 0; id < n; ++id) {
        const PartitionFeed want =
            oracle::partition_feed_rows(dir.path, id, n);
        for (const std::size_t lanes : kLaneCounts) {
          const PartitionFeed got =
              detail::load_partition_feed(dir.path, id, n, lanes_of(lanes));
          const std::string where =
              "v" + std::to_string(format) + " partition " +
              std::to_string(id) + " of " + std::to_string(n) + ", " +
              std::to_string(lanes) + " lanes";
          EXPECT_EQ(got.partition_id, want.partition_id) << where;
          EXPECT_EQ(got.partition_count, want.partition_count) << where;
          EXPECT_EQ(got.proxy, want.proxy) << where;
          EXPECT_EQ(got.mme, want.mme) << where;
          EXPECT_EQ(got.ops, want.ops) << where;
          EXPECT_EQ(got.hosts.strings(), want.hosts.strings()) << where;
          EXPECT_EQ(got.paths.strings(), want.paths.strings()) << where;
          EXPECT_EQ(got.devices, want.devices) << where;
          EXPECT_EQ(got.feed_records, want.feed_records) << where;
          EXPECT_EQ(got.feed_records, store.proxy.size() + store.mme.size())
              << where;
        }
      }
    }
  }
}

/// Loads partition 0 of 2 from `dir` on `lanes` decode lanes per log; it
/// must fail with a util::ParseError whose message holds every one of
/// `needles`.  The load runs on a worker thread: if it has not returned
/// within a minute a lane is stuck on its handoff, and the process aborts
/// rather than hang the suite.
void expect_damage_named(const std::filesystem::path& dir, std::size_t lanes,
                         const std::vector<std::string>& needles) {
  std::future<std::string> load =
      std::async(std::launch::async, [&dir, lanes] {
        try {
          (void)detail::load_partition_feed(dir, 0, 2, lanes_of(lanes));
        } catch (const util::ParseError& e) {
          return std::string(e.what());
        }
        return std::string("no util::ParseError");
      });
  if (load.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    std::fprintf(stderr, "load_partition_feed did not return after damage "
                         "in %s\n", needles.front().c_str());
    std::abort();
  }
  const std::string what = load.get();
  for (const std::string& needle : needles) {
    EXPECT_NE(what.find(needle), std::string::npos)
        << what << " (" << lanes << " lanes)";
  }
}

/// Flips the last payload byte of unit `unit` of the log in `file`: a CRC
/// mismatch (a v2 block's, or a v3 group's last column segment's).
void flip_unit_tail(std::string& file, std::uint16_t format,
                    std::size_t unit) {
  const std::vector<UnitSpan> units = units_of(file, format);
  ASSERT_LT(unit, units.size());
  const UnitSpan& span = units[unit];
  const std::size_t header = format == trace::kBinaryFormatV3
                                 ? trace::kGroupHeaderBytes
                                 : trace::kFrameHeaderBytes;
  file[span.at + header + span.unit.byte_length - 1] ^= 0x20;
}

/// Stamps MME row `row` of the `format` bundle in `dir`, which holds
/// `store`, one second after row `row + 1`: an order violation.  v3
/// rewrites the bundle; the v2 fixture log (one row per block) gets the
/// timestamp, the first field of the block payload, edited in place and
/// the block's CRC resealed.
void break_mme_order(const std::filesystem::path& dir, std::uint16_t format,
                     const trace::TraceStore& store, std::size_t row) {
  const util::SimTime late = store.mme[row + 1].timestamp + 1;
  if (format == trace::kBinaryFormatV3) {
    trace::TraceStore bad = store;
    bad.mme[row].timestamp = late;
    save_small_unit_bundle(bad, dir);
    return;
  }
  std::string file = read_file(dir / "mme.bin");
  const UnitSpan span = units_of(file, format).at(row);
  const std::size_t payload = span.at + trace::kFrameHeaderBytes;
  std::string field;
  util::BufferEncoder enc(field);
  enc.put_i64(late);
  file.replace(payload, 8, field);
  field.clear();
  enc.put_u32(util::crc32(
      bytes_of(file).subspan(payload, span.unit.byte_length)));
  file.replace(span.at + 8, 4, field);  // the frame header's crc32
  write_file(dir / "mme.bin", file);
}

TEST(FedStream, MidStreamDamageThrowsAndJoins) {
  // A log's handoffs hold 16 units over all its lanes, and each lane also
  // holds the unit it is filling and the one the merge reads: at most
  // 16 + 2L units ahead of the merge per log (18 at L = 1, 22 at L = 3, 32
  // at L = 8).  In the v3 bundle each damage below leaves over 40 units of
  // both logs past the row where the merge throws, so every lane of both
  // logs, the damaged log's other lanes included, can be parked on a full
  // handoff then.  The v2 fixture (40 proxy and 30 MME units) fills the
  // window at one lane only; at three and eight lanes it checks the same
  // errors and joins with fewer lanes parked.
  const trace::TraceStore& prefix = capture_prefix();
  constexpr std::size_t kAhead = 40 * kSmallUnit;
  ASSERT_GT(prefix.proxy.size() / 2, kAhead);
  ASSERT_GT(prefix.mme.size() / 2, kAhead);
  // The MME order damage sits at the middle MME row; the proxy rows
  // stamped after it are what the proxy lanes have left.
  const util::SimTime prefix_mid_at =
      prefix.mme[prefix.mme.size() / 2].timestamp;
  ASSERT_GT(static_cast<std::size_t>(std::count_if(
                prefix.proxy.begin(), prefix.proxy.end(),
                [prefix_mid_at](const trace::ProxyRecord& r) {
                  return r.timestamp > prefix_mid_at;
                })),
            kAhead);
  for (const std::uint16_t format :
       {trace::kBinaryFormatV2, trace::kBinaryFormatV3}) {
    const std::string tag = "damage_v" + std::to_string(format);
    // A flipped byte at the end of the middle proxy unit's payload: a CRC
    // mismatch while the other lanes are dozens of units from their end.
    const TempDir crc(tag + "_crc");
    (void)units_bundle(crc.path, format);
    {
      std::string file = read_file(crc.path / "proxy.bin");
      flip_unit_tail(file, format, units_of(file, format).size() / 2);
      write_file(crc.path / "proxy.bin", file);
    }
    // The middle MME row stamped after its successor: an order violation
    // while the proxy lanes run ahead.
    const TempDir order(tag + "_order");
    const trace::TraceStore& store = units_bundle(order.path, format);
    break_mme_order(order.path, format, store, store.mme.size() / 2);
    // The last proxy unit cut short.
    const TempDir cut(tag + "_cut");
    (void)units_bundle(cut.path, format);
    {
      std::string file = read_file(cut.path / "proxy.bin");
      file.resize(file.size() - 3);
      write_file(cut.path / "proxy.bin", file);
    }
    // Proxy units 10 and 11 both fail their CRC.  Above one lane they sit
    // on different lanes, and the lane holding 11 may fail first; the load
    // must still report unit 10.
    const TempDir two(tag + "_two");
    (void)units_bundle(two.path, format);
    {
      std::string file = read_file(two.path / "proxy.bin");
      flip_unit_tail(file, format, 10);
      flip_unit_tail(file, format, 11);
      write_file(two.path / "proxy.bin", file);
    }
    // Repeated so the sanitizers see the shutdown race many times.
    for (const std::size_t lanes : {1u, 3u, 8u}) {
      for (int round = 0; round < 50; ++round) {
        expect_damage_named(crc.path, lanes, {"proxy.bin"});
        expect_damage_named(order.path, lanes, {"mme.bin"});
        expect_damage_named(cut.path, lanes, {"proxy.bin"});
        expect_damage_named(two.path, lanes,
                            {"proxy.bin", "unit 10 failed CRC"});
      }
    }
  }
}

TEST(FedStream, RejectsUnsortedBundle) {
  const TempDir dir("unsorted");
  trace::TraceStore store = capture().store;
  ASSERT_GE(store.proxy.size(), 2u);
  std::swap(store.proxy.front(), store.proxy.back());
  trace::save_bundle(store, dir.path);
  EXPECT_THROW((void)load_partition_feed(dir.path, 0, 2), util::ParseError);
}

TEST(FedStream, RejectsV1AndCsvBundles) {
  // v1 logs have no units to stream, and the error names the rewrite that
  // gives them units; a CSV bundle has no binary logs.
  try {
    (void)load_partition_feed(testing::legacy_dir() / "v1", 0, 2);
    ADD_FAILURE() << "a v1 bundle streamed";
  } catch (const util::ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--convert"), std::string::npos) << what;
    EXPECT_NE(what.find("--format binary"), std::string::npos) << what;
  }
  const TempDir csv("csv");
  trace::save_bundle(capture().store, csv.path, trace::BundleFormat::kCsv);
  EXPECT_THROW((void)load_partition_feed(csv.path, 0, 2), util::IoError);
}

TEST(FedStream, ReplayRequiresMatchingEnginePartition) {
  const TempDir dir("mismatch");
  trace::save_bundle(capture().store, dir.path);
  const PartitionFeed feed = load_partition_feed(dir.path, 0, 2);
  live::LiveEngine engine(feed.devices, partition_options(1, 2));
  EXPECT_THROW(replay_partition_feed(feed, engine), util::ConfigError);
}

}  // namespace
}  // namespace wearscope::fed
