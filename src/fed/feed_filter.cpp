#include "fed/feed_filter.h"

#include <fstream>
#include <limits>
#include <string>
#include <utility>

#include "par/shard.h"
#include "trace/log_reader.h"
#include "util/error.h"
#include "util/mapped_file.h"

namespace wearscope::fed {

namespace {

/// One log of the bundle streamed through trace::LogCursor (one unit
/// resident at a time, the file never mapped), checked for the (time,
/// user) order the feed merge relies on.
template <typename Record>
class SortedLog {
 public:
  explicit SortedLog(const std::filesystem::path& path)
      : path_(path.string()), in_(path, std::ios::binary), cursor_(in_) {
    if (!in_.is_open()) throw util::IoError("cannot open " + path_);
    last_.timestamp = std::numeric_limits<util::SimTime>::min();
  }
  /// cursor_ holds the address of in_.
  SortedLog(const SortedLog&) = delete;
  SortedLog& operator=(const SortedLog&) = delete;

  /// The pools the returned records' ids index.
  trace::ProxyPools& pools() noexcept { return cursor_.pools(); }

  /// The next record, or nullptr at a clean end of log.  Throws
  /// util::ParseError, naming the file, on damage or an order violation.
  const Record* next() {
    const Record* r = nullptr;
    try {
      r = cursor_.next();
    } catch (const util::ParseError& e) {
      throw util::ParseError(path_ + ": " + e.what());
    }
    if (r == nullptr) return nullptr;
    if (trace::ByTimeThenUser{}(*r, last_)) {
      throw util::ParseError(
          path_ + ": log is not (time, user)-sorted — sort the bundle "
                  "before streaming a partition feed");
    }
    last_.timestamp = r->timestamp;
    last_.user_id = r->user_id;
    return r;
  }

 private:
  std::string path_;
  std::ifstream in_;
  trace::LogCursor<Record> cursor_;
  Record last_;
};

/// Appends one unit of `kind` to the run-length op stream.
void append_op(std::vector<std::uint32_t>& ops, FeedOp kind) {
  const std::uint32_t tag = static_cast<std::uint32_t>(kind)
                            << kFeedOpCountBits;
  if (!ops.empty() && (ops.back() & ~kFeedOpMaxRun) == tag &&
      feed_op_count(ops.back()) < kFeedOpMaxRun) {
    ++ops.back();
    return;
  }
  ops.push_back(tag | 1u);
}

}  // namespace

PartitionFeed load_partition_feed(const std::filesystem::path& dir,
                                  std::size_t partition_id,
                                  std::size_t partition_count) {
  util::require(partition_count >= 1 && partition_id < partition_count,
                "load_partition_feed: partition id out of range");
  PartitionFeed feed;
  feed.partition_id = static_cast<std::uint32_t>(partition_id);
  feed.partition_count = static_cast<std::uint32_t>(partition_count);
  {
    const util::MappedFile devices(dir / "devices.bin",
                                   util::MapMode::kReadWholeFile);
    feed.devices = trace::read_binary_log<trace::DeviceRecord>(
        devices.bytes());
  }

  SortedLog<trace::ProxyRecord> proxy(dir / "proxy.bin");
  SortedLog<trace::MmeRecord> mme(dir / "mme.bin");
  const trace::ProxyRecord* p = proxy.next();
  const trace::MmeRecord* m = mme.next();
  while (p != nullptr || m != nullptr) {
    // FeedReplayer's merge rule exactly: MME before proxy on equal stamps.
    const bool take_mme =
        m != nullptr && (p == nullptr || m->timestamp <= p->timestamp);
    if (take_mme) {
      if (par::shard_of(m->user_id, partition_count) == partition_id) {
        feed.mme.push_back(*m);
        append_op(feed.ops, FeedOp::kPushMme);
      } else {
        append_op(feed.ops, FeedOp::kSkipMme);
      }
      m = mme.next();
    } else {
      if (par::shard_of(p->user_id, partition_count) == partition_id) {
        feed.proxy.push_back(*p);
        append_op(feed.ops, FeedOp::kPushProxy);
      } else {
        append_op(feed.ops, FeedOp::kSkipProxy);
      }
      p = proxy.next();
    }
    ++feed.feed_records;
  }
  static_cast<trace::ProxyPools&>(feed) = std::move(proxy.pools());
  return feed;
}

void replay_partition_feed(const PartitionFeed& feed,
                           live::LiveEngine& engine) {
  util::require(
      engine.options().partition_id == feed.partition_id &&
          engine.options().partition_count == feed.partition_count,
      "replay_partition_feed: engine partition does not match the feed");
  engine.bind_hosts(feed.hosts);
  std::size_t pi = 0;
  std::size_t mi = 0;
  for (const std::uint32_t op : feed.ops) {
    const std::uint32_t n = feed_op_count(op);
    switch (feed_op_kind(op)) {
      case FeedOp::kPushProxy:
        util::ensure(pi + n <= feed.proxy.size(),
                     "partition feed ops overrun the owned proxy records");
        for (std::uint32_t k = 0; k < n; ++k) {
          util::ensure(engine.push(feed.proxy[pi++]),
                       "live engine closed mid-replay");
        }
        break;
      case FeedOp::kPushMme:
        util::ensure(mi + n <= feed.mme.size(),
                     "partition feed ops overrun the owned MME records");
        for (std::uint32_t k = 0; k < n; ++k) {
          util::ensure(engine.push(feed.mme[mi++]),
                       "live engine closed mid-replay");
        }
        break;
      case FeedOp::kSkipProxy:
        engine.skip_unowned(n, 0);
        break;
      case FeedOp::kSkipMme:
        engine.skip_unowned(0, n);
        break;
    }
  }
  util::ensure(pi == feed.proxy.size() && mi == feed.mme.size(),
               "partition feed ops do not cover the owned records");
}

}  // namespace wearscope::fed
