// Unit and equivalence tests for the always-on serving layer: query
// parsing/rendering, SnapshotStore publication + retention semantics,
// QueryEngine protocol behavior, the stdio/TCP front ends, and the
// epoch-equivalence gate — at EVERY published epoch, the served answers
// must equal the batch machinery run over the same stream prefix.
#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "live/engine.h"
#include "live/replayer.h"
#include "serve/query.h"
#include "serve/reference.h"
#include "serve/server.h"
#include "serve/snapshot_store.h"
#include "simnet/simulator.h"
#include "test_support.h"
#include "util/rng.h"

namespace wearscope::serve {
namespace {

const simnet::SimResult& capture() {
  static const simnet::SimResult sim = [] {
    simnet::SimConfig cfg = simnet::SimConfig::small();
    cfg.seed = 33;
    return simnet::Simulator(cfg).run();
  }();
  return sim;
}

live::LiveOptions options_for(const simnet::SimResult& sim,
                              std::size_t shards) {
  live::LiveOptions opt;
  opt.shards = shards;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.detailed_start_day;
  opt.long_tail_apps = sim.config.long_tail_apps;
  return opt;
}

/// Replays the shared capture, publishing every periodic snapshot plus the
/// final drain snapshot into `store`.
live::ReplayReport replay_into(SnapshotStore& store, std::size_t shards,
                               util::SimTime snapshot_every) {
  const simnet::SimResult& sim = capture();
  live::LiveEngine engine(sim.store.devices, options_for(sim, shards));
  live::ReplayOptions ropt;
  ropt.snapshot_every_s = snapshot_every;
  ropt.on_snapshot = [&store](live::LiveSnapshot snap) {
    store.publish(std::move(snap));
  };
  const live::ReplayReport report =
      live::FeedReplayer(sim.store, ropt).replay(engine);
  store.publish(engine.stop(), /*final_epoch=*/true);
  return report;
}

// --------------------------------------------------------------- parsing

TEST(ServeQueryParse, AcceptsEveryVerb) {
  EXPECT_EQ(parse_query("adoption").query->kind, QueryKind::kAdoption);
  EXPECT_EQ(parse_query("activity").query->kind, QueryKind::kActivity);
  EXPECT_EQ(parse_query("top-apps").query->kind, QueryKind::kTopApps);
  EXPECT_EQ(parse_query("sectors").query->kind, QueryKind::kSectors);
  EXPECT_EQ(parse_query("quarantine").query->kind, QueryKind::kQuarantine);
  EXPECT_EQ(parse_query("epochs").query->kind, QueryKind::kEpochs);
  EXPECT_EQ(parse_query("stats").query->kind, QueryKind::kStats);
  EXPECT_EQ(parse_query("help").query->kind, QueryKind::kHelp);
}

TEST(ServeQueryParse, TopKAndEpochSelectors) {
  const ParsedQuery k = parse_query("top-apps 25");
  ASSERT_TRUE(k.query.has_value());
  EXPECT_EQ(k.query->top_k, 25u);
  EXPECT_FALSE(k.query->epoch.has_value());

  const ParsedQuery e = parse_query("sectors 3 @17");
  ASSERT_TRUE(e.query.has_value());
  EXPECT_EQ(e.query->top_k, 3u);
  ASSERT_TRUE(e.query->epoch.has_value());
  EXPECT_EQ(*e.query->epoch, 17u);

  const ParsedQuery latest_default = parse_query("adoption @0");
  ASSERT_TRUE(latest_default.query.has_value());
  EXPECT_EQ(*latest_default.query->epoch, 0u);
}

TEST(ServeQueryParse, WhitespaceAndCommentsAreSilent) {
  EXPECT_FALSE(parse_query("").query.has_value());
  EXPECT_TRUE(parse_query("").error.empty());
  EXPECT_FALSE(parse_query("   \t ").query.has_value());
  EXPECT_TRUE(parse_query("   \t ").error.empty());
  EXPECT_FALSE(parse_query("# a comment").query.has_value());
  EXPECT_TRUE(parse_query("# a comment").error.empty());
}

TEST(ServeQueryParse, RejectsMalformedLines) {
  EXPECT_FALSE(parse_query("bogus").query.has_value());
  EXPECT_FALSE(parse_query("bogus").error.empty());
  EXPECT_FALSE(parse_query("adoption extra").query.has_value());
  EXPECT_FALSE(parse_query("top-apps 0").query.has_value());
  EXPECT_FALSE(parse_query("top-apps -3").query.has_value());
  EXPECT_FALSE(parse_query("adoption @").query.has_value());
  EXPECT_FALSE(parse_query("adoption @x").query.has_value());
  EXPECT_FALSE(parse_query("epochs @1").query.has_value());
}

TEST(ServeQueryParse, OverflowingNumbersAreRejected) {
  // UINT64_MAX is still a number; one past it is refused, never wrapped
  // (it used to parse as @0, and 2^64 + 1 as top-apps 1).
  const ParsedQuery max = parse_query("adoption @18446744073709551615");
  ASSERT_TRUE(max.query.has_value());
  EXPECT_EQ(*max.query->epoch, UINT64_MAX);
  EXPECT_FALSE(parse_query("adoption @18446744073709551616").query.has_value());
  EXPECT_FALSE(parse_query("top-apps 18446744073709551617").query.has_value());
  EXPECT_FALSE(
      parse_query("sectors 3 @99999999999999999999999999").query.has_value());
  EXPECT_FALSE(parse_query("top-apps +3").query.has_value());
  EXPECT_FALSE(parse_query("top-apps 3x").query.has_value());
}

// ---------------------------------------------------------------- fuzzing

/// Uniform pick from a fixed table.
std::string_view pick(util::Pcg32& rng,
                      std::span<const std::string_view> table) {
  return table[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(table.size()) - 1))];
}

/// A digit run of 1..40 digits: long enough to overflow 64 bits often.
std::string digit_run(util::Pcg32& rng) {
  std::string digits;
  const std::int64_t len = rng.uniform_int(1, 40);
  for (std::int64_t i = 0; i < len; ++i) {
    digits += static_cast<char>('0' + rng.uniform_int(0, 9));
  }
  return digits;
}

/// One seeded hostile query line built from grammar tokens, @ selectors,
/// long digit runs, NULs and random bytes.  Never a newline: both front
/// ends split the stream on it before a line reaches the parser.
std::string fuzz_line(util::Pcg32& rng) {
  static constexpr std::string_view kTokens[] = {
      "adoption", "activity", "top-apps", "sectors", "quarantine",
      "epochs",   "stats",    "help",     "#",       "@",
      "-1",       "+7",       "0"};
  static constexpr std::string_view kSeparators[] = {" ", "  ", "\t", "",
                                                     "\r"};
  std::string line;
  const std::int64_t parts = rng.uniform_int(1, 6);
  for (std::int64_t p = 0; p < parts; ++p) {
    switch (rng.uniform_int(0, 4)) {
      case 0:
        line += pick(rng, kTokens);
        break;
      case 1:
        line += '@';
        line += digit_run(rng);
        break;
      case 2:
        line += digit_run(rng);
        break;
      case 3:
        line.append(static_cast<std::size_t>(rng.uniform_int(1, 3)), '\0');
        break;
      default:
        for (std::int64_t i = rng.uniform_int(1, 8); i > 0; --i) {
          char byte = static_cast<char>(rng.uniform_int(0, 255));
          if (byte == '\n') byte = '\x7f';
          line += byte;
        }
        break;
    }
    line += pick(rng, kSeparators);
  }
  return line;
}

// Whatever line a client sends, the parser never throws and the engine
// answers with exactly one line that starts with "OK " or "ERR " — or
// nothing, for the blank and comment lines the parser declares silent.
TEST(FuzzQuery, EveryLineGetsOneOkOrErrLine) {
  SnapshotStore store(8);
  replay_into(store, /*shards=*/2,
              /*snapshot_every=*/60 * util::kSecondsPerDay);
  ASSERT_GT(store.published(), 1u);
  QueryEngine engine(store);

  const std::uint64_t seed = wearscope::testing::seed_or(0xF422);
  WEARSCOPE_SCOPED_SEED(seed);
  util::Pcg32 rng(seed);
  std::vector<std::string> corpus = {
      "adoption @18446744073709551616", "top-apps 18446744073709551615",
      "sectors 18446744073709551615 @18446744073709551615",
      "sectors 1 @1 @2", "top-apps 2 3", std::string("adoption\0", 9),
      "quarantine @0", "activity @1"};
  for (int i = 0; i < 5000; ++i) corpus.push_back(fuzz_line(rng));

  for (const std::string& line : corpus) {
    ParsedQuery parsed;
    ASSERT_NO_THROW(parsed = parse_query(line))
        << ::testing::PrintToString(line);
    std::string answer;
    ASSERT_NO_THROW(answer = engine.answer(line))
        << ::testing::PrintToString(line);
    if (!parsed.query.has_value() && parsed.error.empty()) {
      EXPECT_TRUE(answer.empty()) << ::testing::PrintToString(line);
      continue;
    }
    EXPECT_EQ(answer.find('\n'), std::string::npos)
        << ::testing::PrintToString(line);
    const bool ok = answer.rfind("OK ", 0) == 0;
    const bool err = answer.rfind("ERR ", 0) == 0;
    EXPECT_TRUE(ok || err) << ::testing::PrintToString(line) << " -> "
                           << answer;
    if (!parsed.query.has_value()) {
      EXPECT_TRUE(err) << ::testing::PrintToString(line);
    }
  }
}

// --------------------------------------------------------- snapshot store

TEST(SnapshotStore, PublishSwapsLatestAndRetainsWindow) {
  SnapshotStore store(3);
  EXPECT_EQ(store.latest(), nullptr);
  EXPECT_EQ(store.published(), 0u);
  EXPECT_EQ(store.capacity(), 3u);

  for (std::uint64_t e = 0; e < 5; ++e) {
    live::LiveSnapshot snap;
    snap.epoch = e;
    snap.records = 100 * (e + 1);
    store.publish(std::move(snap), /*final_epoch=*/e == 4);
  }
  EXPECT_EQ(store.published(), 5u);
  const SnapshotRef latest = store.latest();
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->snap.epoch, 4u);
  EXPECT_TRUE(latest->final_epoch);
  EXPECT_EQ(latest->publish_seq, 5u);

  // Capacity 3: epochs 0 and 1 were evicted, 2..4 remain reachable.
  EXPECT_EQ(store.retained_epochs(), (std::vector<std::uint64_t>{2, 3, 4}));
  EXPECT_EQ(store.at_epoch(0), nullptr);
  EXPECT_EQ(store.at_epoch(1), nullptr);
  ASSERT_NE(store.at_epoch(2), nullptr);
  EXPECT_EQ(store.at_epoch(2)->snap.records, 300u);
  EXPECT_EQ(store.at_epoch(99), nullptr);
}

TEST(SnapshotStore, EvictedEpochSurvivesWhileReferenced) {
  SnapshotStore store(1);
  live::LiveSnapshot first;
  first.epoch = 0;
  first.records = 1;
  store.publish(std::move(first));
  const SnapshotRef held = store.latest();

  live::LiveSnapshot second;
  second.epoch = 1;
  second.records = 2;
  store.publish(std::move(second));

  // The reader's reference keeps the retired epoch alive and intact.
  EXPECT_EQ(store.at_epoch(0), nullptr);
  EXPECT_EQ(held->snap.records, 1u);
  EXPECT_EQ(held->checksum,
            ServedSnapshot::fold(held->snap, held->publish_seq,
                                 held->final_epoch));
}

TEST(SnapshotStore, RetainOneKeepsExactlyTheNewestEpoch) {
  // The degenerate retention window: every publish evicts its
  // predecessor, so the historical surface is always exactly one epoch
  // deep and @epoch lookups age out immediately.
  SnapshotStore store(1);
  EXPECT_EQ(store.capacity(), 1u);
  for (std::uint64_t e = 0; e < 4; ++e) {
    live::LiveSnapshot snap;
    snap.epoch = e;
    snap.records = e + 1;
    store.publish(std::move(snap));
    EXPECT_EQ(store.retained_epochs(), (std::vector<std::uint64_t>{e}));
    ASSERT_NE(store.at_epoch(e), nullptr);
    EXPECT_EQ(store.at_epoch(e)->snap.records, e + 1);
    if (e > 0) EXPECT_EQ(store.at_epoch(e - 1), nullptr);
  }
  EXPECT_EQ(store.published(), 4u);
  ASSERT_NE(store.latest(), nullptr);
  EXPECT_EQ(store.latest()->snap.epoch, 3u);
}

TEST(QueryEngine, EvictedEpochLookupReportsNotRetained) {
  // An @epoch query for an epoch the retention window has already
  // dropped must fail loudly — not serve the wrong snapshot.
  SnapshotStore store(1);
  QueryEngine engine(store);
  for (std::uint64_t e = 0; e < 2; ++e) {
    live::LiveSnapshot snap;
    snap.epoch = e;
    store.publish(std::move(snap));
  }
  EXPECT_EQ(engine.answer("adoption @0"),
            "ERR epoch 0 not retained (see 'epochs')");
  EXPECT_EQ(engine.answer("adoption @1").rfind("OK adoption ", 0), 0u);
  EXPECT_EQ(engine.answer("epochs"),
            "OK epochs retained=1 capacity=1 published=2");
}

TEST(SnapshotStore, ChecksumCoversRowsAndScalars) {
  live::LiveSnapshot snap;
  snap.epoch = 7;
  snap.records = 1234;
  live::LiveSnapshot::SectorRow row;
  row.sector = 42;
  row.counter.events = 9;
  snap.sectors.push_back(row);
  const std::uint64_t base = ServedSnapshot::fold(snap, 1, false);
  EXPECT_NE(base, ServedSnapshot::fold(snap, 2, false));
  EXPECT_NE(base, ServedSnapshot::fold(snap, 1, true));
  snap.sectors[0].counter.events = 10;
  EXPECT_NE(base, ServedSnapshot::fold(snap, 1, false));
}

// ----------------------------------------------------------- query engine

TEST(QueryEngine, ErrorsBeforeFirstPublish) {
  SnapshotStore store;
  QueryEngine engine(store);
  EXPECT_EQ(engine.answer("adoption"), "ERR no snapshot published yet");
  EXPECT_EQ(engine.answer("top-apps 5 @3"),
            "ERR epoch 3 not retained (see 'epochs')");
  const ServingStats stats = engine.stats();
  EXPECT_EQ(stats.answered, 0u);
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.no_snapshot, 2u);
}

TEST(QueryEngine, MetaQueriesAndCounters) {
  SnapshotStore store(8);
  QueryEngine engine(store);
  live::LiveSnapshot snap;
  snap.epoch = 5;
  store.publish(std::move(snap));

  EXPECT_EQ(engine.answer("epochs"),
            "OK epochs retained=5 capacity=8 published=1");
  EXPECT_EQ(engine.answer("help"), render_help());
  EXPECT_EQ(render_help().rfind("OK help ", 0), 0u);
  EXPECT_TRUE(engine.answer("# comment").empty());
  EXPECT_TRUE(engine.answer("").empty());
  const std::string err = engine.answer("wat");
  EXPECT_EQ(err.rfind("ERR ", 0), 0u) << err;

  // stats reflects everything answered so far, then counts itself.
  EXPECT_EQ(engine.answer("stats"),
            "OK stats answered=2 errors=1 no_snapshot=0 published=1");
  EXPECT_EQ(engine.stats().answered, 3u);
}

TEST(QueryEngine, HistoricalAnswersMatchDirectRendering) {
  SnapshotStore store(8);
  QueryEngine engine(store);
  replay_into(store, /*shards=*/2, /*snapshot_every=*/30 * util::kSecondsPerDay);

  const std::vector<std::uint64_t> epochs = store.retained_epochs();
  ASSERT_GE(epochs.size(), 2u);
  const SnapshotRef past = store.at_epoch(epochs.front());
  ASSERT_NE(past, nullptr);

  Query q;
  q.kind = QueryKind::kTopApps;
  q.top_k = 7;
  const std::string direct = render_snapshot_query(q, past->snap);
  const std::string via_engine =
      engine.answer("top-apps 7 @" + std::to_string(epochs.front()));
  EXPECT_EQ(via_engine, direct);
}

// ------------------------------------------------------------ front ends

/// A client socket connected to the listener on `port`, with a receive
/// timeout so a server that never answers fails the test instead of
/// hanging it.
int connect_client(std::uint16_t port, int timeout_s = 5) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const timeval timeout{timeout_s, 0};
  EXPECT_EQ(
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

/// Sends `request` and reads until a newline, EOF or an error.
std::string ask(int fd, const std::string& request) {
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t w = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (w <= 0) break;
    sent += static_cast<std::size_t>(w);
  }
  std::string response;
  char buf[128];
  while (response.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  return response;
}

TEST(LineServer, ServesStreamOneResponsePerQuery) {
  SnapshotStore store;
  QueryEngine engine(store);
  live::LiveSnapshot snap;
  snap.epoch = 0;
  snap.records = 50;
  store.publish(std::move(snap), /*final_epoch=*/true);

  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  std::fputs("epochs\n# ignored\n\nquarantine\nbogus\n", in);
  std::rewind(in);

  LineServer server(engine);
  EXPECT_EQ(server.serve_stream(in, out), 3u);

  std::rewind(out);
  char buf[256];
  std::vector<std::string> lines;
  while (std::fgets(buf, sizeof(buf), out) != nullptr) lines.emplace_back(buf);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "OK epochs retained=0 capacity=64 published=1\n");
  EXPECT_EQ(lines[1].rfind("OK quarantine epoch=0 ", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2].rfind("ERR ", 0), 0u) << lines[2];
  std::fclose(in);
  std::fclose(out);
}

TEST(LineServer, StreamRefusesOverlongLine) {
  SnapshotStore store;
  QueryEngine engine(store);
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  ASSERT_NE(in, nullptr);
  ASSERT_NE(out, nullptr);
  // 70 KiB and no newline: the stdin session gets the TCP path's answer
  // and ends, instead of buffering an unbounded line.
  const std::string line(70 * 1024, 'x');
  ASSERT_GT(line.size(), LineServer::kMaxLineBytes);
  std::fwrite(line.data(), 1, line.size(), in);
  std::rewind(in);

  LineServer server(engine);
  EXPECT_EQ(server.serve_stream(in, out), 1u);

  std::rewind(out);
  char buf[256];
  std::vector<std::string> lines;
  while (std::fgets(buf, sizeof(buf), out) != nullptr) lines.emplace_back(buf);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "ERR line too long\n");
  std::fclose(in);
  std::fclose(out);
}

TEST(LineServer, TcpListenerAnswersAndStops) {
  SnapshotStore store;
  QueryEngine engine(store);
  live::LiveSnapshot snap;
  snap.epoch = 2;
  store.publish(std::move(snap));

  LineServer server(engine);
  server.start_listener(0);  // kernel-assigned port
  ASSERT_NE(server.bound_port(), 0u);

  const int fd = connect_client(server.bound_port());
  EXPECT_EQ(ask(fd, "epochs\n"),
            "OK epochs retained=2 capacity=64 published=1\n");
  ::close(fd);
  server.stop_listener();
  EXPECT_EQ(server.bound_port(), 0u);
  server.stop_listener();  // idempotent
}

TEST(LineServer, PeerResetMidAnswerEndsOnlyThatConnection) {
  SnapshotStore store;
  QueryEngine engine(store);
  live::LiveSnapshot snap;
  snap.epoch = 1;
  // A long adoption curve makes every answer ~100 KB, so the answers to a
  // burst of queries overrun the socket buffers and the server is still
  // writing (with queries left unread) when the reset lands.
  snap.adoption.daily_registered_norm.assign(10'000, 0.123456789);
  store.publish(std::move(snap));

  LineServer server(engine);
  server.start_listener(0);
  ASSERT_NE(server.bound_port(), 0u);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.bound_port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);

  const int rude = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(rude, 0);
  ASSERT_EQ(::connect(rude, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  std::string burst;
  for (int i = 0; i < 2000; ++i) burst += "adoption\n";
  // Never read; send what fits without blocking on a server that has
  // stopped reading because its own writes are stuck.
  ASSERT_GT(::send(rude, burst.data(), burst.size(),
                   MSG_DONTWAIT | MSG_NOSIGNAL),
            0);
  ::usleep(200'000);
  const linger reset{1, 0};  // close() sends RST instead of FIN
  ASSERT_EQ(::setsockopt(rude, SOL_SOCKET, SO_LINGER, &reset, sizeof reset),
            0);
  ::close(rude);

  // Still alive (no SIGPIPE), and a fresh client still gets answers.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const char request[] = "epochs\n";
  ASSERT_EQ(::send(fd, request, sizeof(request) - 1, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(request) - 1));
  std::string response;
  char buf[128];
  while (response.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0);
    response.append(buf, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(response, "OK epochs retained=1 capacity=64 published=1\n");
  ::close(fd);
  server.stop_listener();
}

TEST(LineServer, OverlongLineIsRejectedOthersKeepServing) {
  SnapshotStore store;
  QueryEngine engine(store);
  live::LiveSnapshot snap;
  snap.epoch = 1;
  store.publish(std::move(snap));

  LineServer server(engine);
  server.start_listener(0);
  ASSERT_NE(server.bound_port(), 0u);
  const std::uint16_t port = server.bound_port();
  const std::string epochs_ok = "OK epochs retained=1 capacity=64 published=1\n";

  const int polite = connect_client(port);
  EXPECT_EQ(ask(polite, "epochs\n"), epochs_ok);

  // One byte over the cap and no newline: the server reads every byte,
  // answers once and closes this connection only.
  const int rude = connect_client(port);
  EXPECT_EQ(ask(rude, std::string(LineServer::kMaxLineBytes + 1, 'x')),
            "ERR line too long\n");
  char byte;
  EXPECT_EQ(::recv(rude, &byte, 1, 0), 0);  // closed by the server
  ::close(rude);

  // A line right at the cap is still a (bogus) query, not an overflow.
  const int edge = connect_client(port);
  const std::string at_cap =
      ask(edge, std::string(LineServer::kMaxLineBytes, 'x') + "\n");
  EXPECT_EQ(at_cap.rfind("ERR ", 0), 0u);
  EXPECT_NE(at_cap, "ERR line too long\n");
  EXPECT_EQ(ask(edge, "epochs\n"), epochs_ok);
  ::close(edge);

  EXPECT_EQ(ask(polite, "epochs\n"), epochs_ok);
  ::close(polite);
  server.stop_listener();
}

/// Open descriptors of this process: the entries of /proc/self/fd.
std::size_t open_descriptors() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST(LineServer, ClosedConnectionsReleaseTheirDescriptors) {
  SnapshotStore store;
  QueryEngine engine(store);
  live::LiveSnapshot snap;
  snap.epoch = 1;
  store.publish(std::move(snap));

  const std::size_t before = open_descriptors();
  LineServer server(engine);
  server.start_listener(0);
  ASSERT_NE(server.bound_port(), 0u);
  for (int cycle = 0; cycle < 200; ++cycle) {
    const int fd = connect_client(server.bound_port());
    const std::string response = ask(fd, "epochs\n");
    ASSERT_EQ(response.rfind("OK epochs", 0), 0u)
        << "cycle " << cycle << ": " << response;
    ::close(fd);
  }
  server.stop_listener();
  EXPECT_EQ(open_descriptors(), before);
}

TEST(LineServer, RefusesConnectionsOverTheCap) {
  SnapshotStore store;
  QueryEngine engine(store);
  live::LiveSnapshot snap;
  snap.epoch = 1;
  store.publish(std::move(snap));

  LineServer server(engine);
  server.start_listener(0);
  ASSERT_NE(server.bound_port(), 0u);
  const std::uint16_t port = server.bound_port();
  const std::string epochs_ok = "OK epochs retained=1 capacity=64 published=1\n";

  // An answered query proves the listener accepted and registered the
  // connection before the next one opens.
  std::vector<int> open;
  for (std::size_t i = 0; i < LineServer::kMaxConnections; ++i) {
    open.push_back(connect_client(port));
    ASSERT_EQ(ask(open.back(), "epochs\n"), epochs_ok) << "connection " << i;
  }

  // One over the cap: refused with one line, then closed by the server.
  const int extra = connect_client(port, /*timeout_s=*/2);
  EXPECT_EQ(ask(extra, ""), "ERR too many connections\n");
  char byte;
  EXPECT_EQ(::recv(extra, &byte, 1, 0), 0);
  ::close(extra);

  // The open connections keep being served.
  EXPECT_EQ(ask(open.front(), "epochs\n"), epochs_ok);
  EXPECT_EQ(ask(open.back(), "epochs\n"), epochs_ok);

  // Once one closes, a new client gets in (after the server notices).
  ::close(open.back());
  open.pop_back();
  bool admitted = false;
  for (int attempt = 0; attempt < 200 && !admitted; ++attempt) {
    const int fd = connect_client(port);
    const std::string response = ask(fd, "epochs\n");
    admitted = response == epochs_ok;
    if (admitted) {
      open.push_back(fd);
    } else {
      EXPECT_EQ(response, "ERR too many connections\n");
      ::close(fd);
      ::usleep(10'000);
    }
  }
  EXPECT_TRUE(admitted);
  for (const int fd : open) ::close(fd);
  server.stop_listener();
}

/// Waits until the server has closed every socket in `fds` (each reads
/// EOF or a reset) or `limit` passes; returns how many it closed.
std::size_t wait_closed(const std::vector<int>& fds,
                        std::chrono::milliseconds limit) {
  const auto until = std::chrono::steady_clock::now() + limit;
  std::vector<int> open = fds;
  while (!open.empty() && std::chrono::steady_clock::now() < until) {
    std::vector<pollfd> polls;
    for (const int fd : open) polls.push_back({fd, POLLIN, 0});
    ::poll(polls.data(), polls.size(), 100);
    for (const pollfd& p : polls) {
      char byte;
      if (p.revents != 0 && ::recv(p.fd, &byte, 1, MSG_DONTWAIT) <= 0) {
        std::erase(open, p.fd);
      }
    }
  }
  return fds.size() - open.size();
}

TEST(LineServer, IdleClientsLoseTheirSlotsAtTheDeadline) {
  SnapshotStore store;
  QueryEngine engine(store);
  live::LiveSnapshot snap;
  snap.epoch = 1;
  store.publish(std::move(snap));

  LineServer server(engine);
  server.start_listener(0);
  ASSERT_NE(server.bound_port(), 0u);
  const std::uint16_t port = server.bound_port();
  const std::string epochs_ok = "OK epochs retained=1 capacity=64 published=1\n";

  // Every slot taken by a client that asks once and then says nothing.
  const auto start = std::chrono::steady_clock::now();
  std::vector<int> idle;
  for (std::size_t i = 0; i < LineServer::kMaxConnections; ++i) {
    idle.push_back(connect_client(port));
    ASSERT_EQ(ask(idle.back(), "epochs\n"), epochs_ok) << "connection " << i;
  }
  const int extra = connect_client(port);
  EXPECT_EQ(ask(extra, ""), "ERR too many connections\n");
  ::close(extra);

  // No client closes: the server does, once the idle deadline passes.
  const auto limit = LineServer::kIdleTimeout + std::chrono::seconds(5);
  EXPECT_EQ(wait_closed(idle, limit), idle.size());
  EXPECT_GE(std::chrono::steady_clock::now() - start, LineServer::kIdleTimeout);
  // Their slots are free again although the clients still hold them open.
  const int fresh = connect_client(port);
  EXPECT_EQ(ask(fresh, "epochs\n"), epochs_ok);
  ::close(fresh);
  for (const int fd : idle) ::close(fd);
  server.stop_listener();
}

TEST(LineServer, SlowlorisPartialLineIsClosedAtTheDeadline) {
  SnapshotStore store;
  QueryEngine engine(store);
  live::LiveSnapshot snap;
  snap.epoch = 1;
  store.publish(std::move(snap));

  LineServer server(engine);
  server.start_listener(0);
  ASSERT_NE(server.bound_port(), 0u);
  const auto start = std::chrono::steady_clock::now();
  const int loris = connect_client(server.bound_port());
  // One byte every 200 ms and never a newline: bytes that complete no
  // query line are not progress.
  bool closed = false;
  while (!closed && std::chrono::steady_clock::now() - start <
                        LineServer::kIdleTimeout + std::chrono::seconds(5)) {
    ::send(loris, "x", 1, MSG_NOSIGNAL);
    closed = wait_closed({loris}, std::chrono::milliseconds(200)) == 1;
  }
  EXPECT_TRUE(closed);
  EXPECT_GE(std::chrono::steady_clock::now() - start, LineServer::kIdleTimeout);
  ::close(loris);

  const int fd = connect_client(server.bound_port());
  EXPECT_EQ(ask(fd, "epochs\n"),
            "OK epochs retained=1 capacity=64 published=1\n");
  ::close(fd);
  server.stop_listener();
}

TEST(LineServer, ClientThatNeverReadsStallsNoOneElse) {
  SnapshotStore store;
  QueryEngine engine(store);
  live::LiveSnapshot snap;
  snap.epoch = 1;
  // ~100 KB per adoption answer: a burst of them fills the socket buffers.
  snap.adoption.daily_registered_norm.assign(10'000, 0.123456789);
  store.publish(std::move(snap));

  LineServer server(engine);
  server.start_listener(0);
  ASSERT_NE(server.bound_port(), 0u);
  const std::uint16_t port = server.bound_port();

  const int rude = connect_client(port);
  std::string burst;
  for (int i = 0; i < 2000; ++i) burst += "adoption\n";
  ASSERT_GT(::send(rude, burst.data(), burst.size(),
                   MSG_DONTWAIT | MSG_NOSIGNAL),
            0);
  // The stall has set in once the answers queued at `rude` stop growing:
  // the kernel takes no more, and the server holds the rest.
  int queued = -1;
  int last = -2;
  while (queued != last) {
    last = queued;
    ::usleep(200'000);
    ASSERT_EQ(::ioctl(rude, FIONREAD, &queued), 0);
  }
  ASSERT_GT(queued, 0);

  const int polite = connect_client(port);
  auto slowest = std::chrono::steady_clock::duration::zero();
  for (int i = 0; i < 20; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_EQ(ask(polite, "epochs\n"),
              "OK epochs retained=1 capacity=64 published=1\n");
    slowest = std::max(slowest, std::chrono::steady_clock::now() - t0);
    ::usleep(20'000);
  }
  EXPECT_LT(slowest, std::chrono::seconds(1));
  ::close(polite);

  // The stalled connection was held, not dropped: its answers are waiting.
  char head[12] = {};
  ASSERT_EQ(::recv(rude, head, sizeof head - 1, MSG_WAITALL), 11);
  EXPECT_STREQ(head, "OK adoption");
  ::close(rude);
  server.stop_listener();
}

TEST(LineServer, StopRacesConnectionChurn) {
  SnapshotStore store;
  QueryEngine engine(store);
  live::LiveSnapshot snap;
  snap.epoch = 1;
  store.publish(std::move(snap));
  // Repeated so the sanitizers see the shutdown race many times, with the
  // stop landing at a different point of the churn each round.
  for (int round = 0; round < 40; ++round) {
    LineServer server(engine);
    server.start_listener(0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.bound_port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    std::atomic<bool> done{false};
    std::thread churn([&addr, &done, round] {
      for (int i = 0; !done.load(std::memory_order_acquire); ++i) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        // A SYN that meets the closing listener is retried after a second;
        // give up sooner so the join below stays quick.
        const timeval timeout{0, 100'000};
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) == 0) {
          if ((i + round) % 3 != 0) ::send(fd, "epochs\n", 7, MSG_NOSIGNAL);
          if ((i + round) % 2 == 0) {
            const linger reset{1, 0};  // close() sends RST, not FIN
            ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof reset);
          }
        }
        ::close(fd);
      }
    });
    ::usleep(static_cast<useconds_t>(1'000 * (round % 8)));
    std::future<void> stop = std::async(std::launch::async,
                                         [&server] { server.stop_listener(); });
    if (stop.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      std::fprintf(stderr, "stop_listener did not return in round %d\n", round);
      std::abort();
    }
    EXPECT_EQ(server.bound_port(), 0u);
    done.store(true, std::memory_order_release);
    churn.join();
  }
}

// ------------------------------------------------------ epoch equivalence

// The tentpole gate: at EVERY published epoch, the served answers must be
// byte-identical to the batch machinery run over the same stream prefix —
// figures against core::Pipeline, tallies against the sequential
// reference replay.  Quarantine is all-zero here (clean capture), checked
// against a default QuarantineStats to keep the comparison honest.
TEST(ServeEquivalence, EveryEpochMatchesBatchOverSamePrefix) {
  const simnet::SimResult& sim = capture();
  SnapshotStore store(64);
  replay_into(store, /*shards=*/3,
              /*snapshot_every=*/30 * util::kSecondsPerDay);
  ASSERT_GE(store.published(), 3u);

  const live::LiveOptions opt = options_for(sim, 3);
  for (const std::uint64_t epoch : store.retained_epochs()) {
    const SnapshotRef served = store.at_epoch(epoch);
    ASSERT_NE(served, nullptr);
    const trace::TraceStore prefix =
        prefix_store(sim.store, served->snap.records);
    const std::vector<VerifyMismatch> mismatches = verify_responses(
        served->snap, prefix, opt, trace::QuarantineStats{}, /*top_k=*/10);
    for (const VerifyMismatch& m : mismatches) {
      ADD_FAILURE() << "epoch " << epoch << " query '" << m.query
                    << "'\n  serve: " << m.serve << "\n  batch: " << m.batch;
    }
  }
}

// Shard-count independence seen through the protocol: the rendered answer
// strings must be identical for any worker layout.
TEST(ServeEquivalence, AnswersIndependentOfShardCount) {
  const std::vector<std::string> queries = {
      "adoption", "activity", "top-apps 10", "sectors 10", "quarantine"};
  std::vector<std::string> baseline;
  for (const std::size_t shards : {1u, 4u}) {
    SnapshotStore store;
    QueryEngine engine(store);
    replay_into(store, shards, /*snapshot_every=*/0);
    std::vector<std::string> answers;
    answers.reserve(queries.size());
    for (const std::string& q : queries) answers.push_back(engine.answer(q));
    if (baseline.empty()) {
      baseline = answers;
    } else {
      EXPECT_EQ(answers, baseline) << "shards=" << shards;
    }
  }
}

}  // namespace
}  // namespace wearscope::serve
