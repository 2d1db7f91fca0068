// Federation tests: the WSFD partial-snapshot format round-trips exactly,
// the cover validation rejects every malformed cover hard, the federated
// merge of N user-disjoint partitions reproduces the single-process
// snapshot bitwise, and the streaming partition-feed loader is
// indistinguishable from materializing the whole store.
#include "fed/merge.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "fed/feed_filter.h"
#include "fed/partial_io.h"
#include "live/engine.h"
#include "live/replayer.h"
#include "serve/reference.h"
#include "simnet/simulator.h"
#include "trace/bundle.h"
#include "trace/sanitize.h"
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

TEST(FedStream, StreamedFeedMatchesFullStoreBitwise) {
  const simnet::SimResult& sim = capture();
  ASSERT_TRUE(sim.store.is_sorted());
  for (const std::uint16_t format :
       {trace::kBinaryFormatV2, trace::kBinaryFormatV3}) {
    const TempDir dir("stream_v" + std::to_string(format));
    trace::save_bundle(sim.store, dir.path, trace::BundleFormat::kBinary,
                       format);
    for (std::size_t partition = 0; partition < 3; ++partition) {
      const live::LiveOptions opt = partition_options(partition, 3);
      const PartitionFeed feed = load_partition_feed(dir.path, partition, 3);
      EXPECT_EQ(feed.feed_records,
                sim.store.proxy.size() + sim.store.mme.size());
      live::LiveEngine engine(feed.devices, opt);
      replay_partition_feed(feed, engine);
      const PartialSnapshot streamed = make_partial(engine.stop(), opt);

      live::LiveEngine full(sim.store.devices, opt);
      const live::FeedReplayer replayer(sim.store, live::ReplayOptions{});
      (void)replayer.replay(full);
      const PartialSnapshot materialized = make_partial(full.stop(), opt);

      EXPECT_EQ(encode_partial(streamed), encode_partial(materialized))
          << "v" << format << " partition " << partition;
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
  // v1 logs have no units to stream; a CSV bundle has no binary logs.
  const TempDir v1("v1");
  trace::save_bundle(capture().store, v1.path, trace::BundleFormat::kBinary,
                     1);
  EXPECT_THROW((void)load_partition_feed(v1.path, 0, 2), util::ParseError);
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
