#include "fed/feed_filter.h"

#include <exception>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include "live/ring_buffer.h"
#include "par/shard.h"
#include "trace/log_reader.h"
#include "util/error.h"
#include "util/mapped_file.h"

namespace wearscope::fed {

namespace {

/// Units per handoff batch.  The merge outpaces the decoders, so it parks
/// on an empty handoff once per batch; per unit, the wakeups cost more
/// than the merge itself.
constexpr std::size_t kBatchUnits = 4;
/// Batches each decoder may run ahead of the merge.
constexpr std::size_t kHandoffBatches = 4;

/// Decoded rows on their way from a decoder thread to the merge.  The
/// merge needs every row's stamp and owner but only the owned rows
/// themselves, so the decoder splits them apart.
template <typename Record>
struct DecodedBatch {
  std::vector<util::SimTime> stamps;  ///< Every row's timestamp.
  /// 1 where par::shard_of assigns the row to this partition.
  std::vector<std::uint8_t> owned;
  std::vector<Record> owned_rows;  ///< The owned rows, in log order.
  /// Set on the last batch of a log that failed; the batch is then empty.
  std::exception_ptr error = nullptr;
};

/// One log of the bundle decoded on a thread of its own: the thread pulls
/// whole units from a trace::LogCursor, checks the (time, user) order the
/// merge relies on, tags each row owned or not, and hands the rows over in
/// batches through a bounded in-order ring.  Destruction closes the ring
/// and joins the thread, however far either side got.
template <typename Record>
class LogDecoder {
 public:
  LogDecoder(const std::filesystem::path& path, std::size_t partition_id,
             std::size_t partition_count)
      : path_(path.string()),
        partition_id_(partition_id),
        partition_count_(partition_count),
        in_(path, std::ios::binary),
        cursor_(in_) {
    if (!in_.is_open()) throw util::IoError("cannot open " + path_);
    claimed_ = trace::claimed_records<Record>(in_);
    thread_ = std::thread([this] { run(); });
  }
  /// The thread holds `this`.
  LogDecoder(const LogDecoder&) = delete;
  LogDecoder& operator=(const LogDecoder&) = delete;
  ~LogDecoder() {
    handoff_.close();
    if (thread_.joinable()) thread_.join();
  }

  /// The record count the log's unit headers claim, owned or not
  /// (trace::claimed_records): read before the decoder starts.
  [[nodiscard]] std::uint64_t claimed() const noexcept { return claimed_; }

  /// Replaces `batch` with the next batch and appends its owned rows to
  /// `feed_rows`, or returns false at the end of the log.  Rethrows the
  /// decoder's error, in log order.
  bool pop(DecodedBatch<Record>& batch, std::vector<Record>& feed_rows) {
    if (!handoff_.pop(batch)) return false;
    if (batch.error) std::rethrow_exception(batch.error);
    feed_rows.insert(feed_rows.end(), batch.owned_rows.begin(),
                     batch.owned_rows.end());
    return true;
  }

  /// The pools the rows' ids index, complete once pop() has returned
  /// false.  Joins the decoder.
  trace::ProxyPools take_pools() {
    handoff_.close();
    thread_.join();
    return std::move(cursor_.pools());
  }

 private:
  void run() {
    DecodedBatch<Record> batch;
    std::exception_ptr error;
    try {
      std::vector<Record> rows;
      Record last;
      last.timestamp = std::numeric_limits<util::SimTime>::min();
      bool more = true;
      while (more) {
        for (std::size_t units = 0; units < kBatchUnits; ++units) {
          more = next_unit(rows);
          if (!more) break;
          const std::size_t base = batch.stamps.size();
          batch.stamps.resize(base + rows.size());
          batch.owned.resize(base + rows.size());
          for (std::size_t i = 0; i < rows.size(); ++i) {
            const Record& r = rows[i];
            if (trace::ByTimeThenUser{}(r, last)) {
              batch.stamps.resize(base + i);
              batch.owned.resize(base + i);
              throw util::ParseError(
                  path_ + ": log is not (time, user)-sorted — sort the "
                          "bundle before streaming a partition feed");
            }
            last.timestamp = r.timestamp;
            last.user_id = r.user_id;
            batch.stamps[base + i] = r.timestamp;
            const bool owned =
                par::shard_of(r.user_id, partition_count_) == partition_id_;
            batch.owned[base + i] = owned ? 1 : 0;
            if (owned) batch.owned_rows.push_back(r);
          }
        }
        if (!batch.stamps.empty() && !handoff_.push(std::move(batch)))
          return;  // the merge gave up
        batch = DecodedBatch<Record>{};
      }
    } catch (...) {
      error = std::current_exception();
    }
    if (error) {
      // The rows before the damage reach the merge first, so it fails at
      // the same row as a merge that pulls one row at a time.
      if (!batch.stamps.empty() && !handoff_.push(std::move(batch))) return;
      DecodedBatch<Record> failed;
      failed.error = error;
      (void)handoff_.push(std::move(failed));
    }
    handoff_.close();
  }

  /// LogCursor::next_unit, naming the file on damage.
  bool next_unit(std::vector<Record>& rows) {
    try {
      return cursor_.next_unit(rows);
    } catch (const util::ParseError& e) {
      throw util::ParseError(path_ + ": " + e.what());
    }
  }

  std::string path_;
  std::uint64_t claimed_ = 0;
  std::size_t partition_id_ = 0;
  std::size_t partition_count_ = 1;
  std::ifstream in_;
  trace::LogCursor<Record> cursor_;  ///< Holds the address of in_.
  live::RingBuffer<DecodedBatch<Record>> handoff_{kHandoffBatches};
  std::thread thread_;
};

/// Appends one record of `kind` to the run-length op stream.
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

/// The merge's position in one log: the current batch and its next row.
template <typename Record>
struct LogPosition {
  DecodedBatch<Record> batch;
  std::size_t at = 0;
  bool live = false;

  [[nodiscard]] util::SimTime head() const noexcept {
    return live ? batch.stamps[at] : std::numeric_limits<util::SimTime>::max();
  }
};

/// Adds `log`'s rows up to the first one whose stamp `stop` accepts (at
/// least one row) to the op script, refilling from `decoder` when the
/// batch runs out.
template <typename Record, typename Stop>
void take_run(LogPosition<Record>& log, LogDecoder<Record>& decoder,
              std::vector<Record>& feed_rows, std::vector<std::uint32_t>& ops,
              FeedOp push, FeedOp skip, std::uint64_t& feed_records,
              Stop stop) {
  const std::vector<util::SimTime>& stamps = log.batch.stamps;
  std::size_t i = log.at;
  do {
    append_op(ops, log.batch.owned[i] != 0 ? push : skip);
    ++i;
  } while (i < stamps.size() && !stop(stamps[i]));
  feed_records += i - log.at;
  log.at = i;
  if (i == stamps.size()) {
    log.live = decoder.pop(log.batch, feed_rows);
    log.at = 0;
  }
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

  LogDecoder<trace::ProxyRecord> proxy_log(dir / "proxy.bin", partition_id,
                                           partition_count);
  LogDecoder<trace::MmeRecord> mme_log(dir / "mme.bin", partition_id,
                                       partition_count);
  // One allocation per log, never a reallocation: room for every row the
  // headers claim, of which only the owned rows' pages are ever touched.
  feed.proxy.reserve(proxy_log.claimed());
  feed.mme.reserve(mme_log.claimed());
  LogPosition<trace::ProxyRecord> p;
  LogPosition<trace::MmeRecord> m;
  p.live = proxy_log.pop(p.batch, feed.proxy);
  m.live = mme_log.pop(m.batch, feed.mme);
  while (p.live || m.live) {
    // FeedReplayer's merge rule exactly: MME before proxy on equal stamps.
    const util::SimTime p_head = p.head();
    const util::SimTime m_head = m.head();
    if (m.live && m_head <= p_head) {
      take_run(m, mme_log, feed.mme, feed.ops, FeedOp::kPushMme,
               FeedOp::kSkipMme, feed.feed_records,
               [p_head](util::SimTime t) { return t > p_head; });
    } else {
      take_run(p, proxy_log, feed.proxy, feed.ops, FeedOp::kPushProxy,
               FeedOp::kSkipProxy, feed.feed_records,
               [m_head](util::SimTime t) { return t >= m_head; });
    }
  }
  static_cast<trace::ProxyPools&>(feed) = proxy_log.take_pools();
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
