#include "fed/feed_filter.h"

#include <algorithm>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
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

/// Units one log's handoffs hold together, whatever its lane count (each
/// lane's handoff holds its share, at least one).
constexpr std::size_t kWindowUnits = 16;
/// Proxy lanes past this many would wait on the merge: on the standard
/// bundle a partition's proxy decode and tagging take about four times
/// the merge's CPU time.
constexpr std::size_t kMaxProxyLanes = 4;
/// Rows the unit buffers are sized for up front: the largest unit the
/// headers claim, up to this many (a writer's default unit is 4096 rows).
/// A larger unit grows the buffers it passes through once.
constexpr std::size_t kMaxPresizedRows = std::size_t{1} << 16;

/// One unit as a lane hands it to the merge.  The merge needs every row's
/// stamp and owner but only the owned rows themselves, so the lane splits
/// them apart.  Lanes reuse these buffers unit after unit.
template <typename Record>
struct DecodedUnit {
  std::vector<util::SimTime> stamps;  ///< Every row's timestamp.
  /// The rows alternate between runs owned by this partition and runs
  /// owned by others: the row index each run ends at, in row order.
  std::vector<std::uint32_t> run_ends;
  bool first_run_owned = false;
  std::vector<Record> owned_rows;  ///< Ids index the lane cursor's pools.
  /// The strings the lane cursor's pools gained with this unit, in order.
  std::vector<std::string> new_hosts;
  std::vector<std::string> new_paths;
  Record first;  ///< The first and last row, for the cross-unit order
  Record last;   ///< check (set when stamps is not empty).
  /// Set on the last unit of a lane that failed: the rows before the
  /// damage (if any) come first, then the error.
  std::exception_ptr error = nullptr;
};

/// One decode lane: a cursor that reads every L-th unit of the log on a
/// thread of its own, the unit buffers it fills in turn, and the in-order
/// handoff that carries their indices to the merge.  Destruction closes
/// the handoff and joins the thread, however far either side got.
template <typename Record>
struct Lane {
  Lane(const std::filesystem::path& path, std::size_t lane, std::size_t lanes,
       std::size_t capacity)
      : in(path, std::ios::binary),
        cursor(in, lane, lanes),
        units(capacity + 2),
        handoff(capacity) {}
  /// The cursor holds the address of `in`, the thread `this`.
  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;
  ~Lane() {
    handoff.close();
    if (thread.joinable()) thread.join();
  }

  std::ifstream in;
  trace::LogCursor<Record> cursor;
  std::vector<Record> rows;  ///< The unit being decoded.
  /// The lane fills units[n % size] with its n-th unit.  The merge holds
  /// at most one of this lane's units at a time and is done with it when
  /// it pops the next, so with two more buffers than the handoff holds,
  /// the one being filled is never one the merge still reads.
  std::vector<DecodedUnit<Record>> units;
  live::RingBuffer<std::uint32_t> handoff;
  std::thread thread;
  /// Merge side: the feed pools' id of each lane-cursor pool entry.
  std::vector<std::uint32_t> host_ids;
  std::vector<std::uint32_t> path_ids;
};

/// Appends `n` records of `kind` to the run-length op stream, extending
/// the last op while it has the same kind and room.
void append_ops(std::vector<std::uint32_t>& ops, FeedOp kind, std::size_t n) {
  const std::uint32_t tag = static_cast<std::uint32_t>(kind)
                            << kFeedOpCountBits;
  while (n > 0) {
    std::size_t room = kFeedOpMaxRun;
    if (!ops.empty() && (ops.back() & ~kFeedOpMaxRun) == tag &&
        feed_op_count(ops.back()) < kFeedOpMaxRun) {
      room -= feed_op_count(ops.back());
    } else {
      ops.push_back(tag);
    }
    const std::size_t add = std::min(n, room);
    ops.back() += static_cast<std::uint32_t>(add);
    n -= add;
  }
}

/// One log of the bundle, decoded on L lanes and merged in unit order.
/// Lane k reads, CRC-checks and decodes units k, k + L, ...; checks the
/// (time, user) order within each unit and tags its rows owned or not.
/// The merge pops the lanes round-robin, so it sees the units in log
/// order: it checks the order across each unit boundary, merges the
/// unit's new strings into the feed pools, appends its owned rows and
/// walks its stamps.
template <typename Record>
class LogFeed {
 public:
  LogFeed(const std::filesystem::path& path, std::size_t partition_id,
          std::size_t partition_count, std::size_t lanes)
      : path_(path.string()),
        partition_id_(partition_id),
        partition_count_(partition_count) {
    util::require(lanes >= 1, "load_partition_feed: lanes must be >= 1");
    const std::size_t capacity =
        std::max<std::size_t>(1, kWindowUnits / lanes);
    for (std::size_t k = 0; k < lanes; ++k) {
      lanes_.push_back(
          std::make_unique<Lane<Record>>(path, k, lanes, capacity));
      if (!lanes_.back()->in.is_open())
        throw util::IoError("cannot open " + path_);
    }
    claimed_ = trace::claimed_records<Record>(lanes_.front()->in);
    // Every buffer a lane fills is sized here, on this thread, once, so
    // the lanes do not allocate as they go.
    const std::size_t unit_rows = static_cast<std::size_t>(
        std::min<std::uint64_t>(claimed_.largest_unit, kMaxPresizedRows));
    for (const std::unique_ptr<Lane<Record>>& lane : lanes_) {
      lane->rows.reserve(unit_rows);
      for (DecodedUnit<Record>& unit : lane->units) {
        unit.stamps.reserve(unit_rows);
        unit.run_ends.reserve(unit_rows);
        unit.owned_rows.reserve(unit_rows);
      }
    }
    for (const std::unique_ptr<Lane<Record>>& lane : lanes_) {
      lane->thread = std::thread([this, &own = *lane] { decode(own); });
    }
  }
  LogFeed(const LogFeed&) = delete;
  LogFeed& operator=(const LogFeed&) = delete;

  /// The record count the log's unit headers claim, owned or not.
  [[nodiscard]] std::uint64_t claimed() const noexcept {
    return claimed_.records;
  }

  /// Moves to the next unit that holds rows: merges the strings of every
  /// unit it passes into `pools` and appends the unit's owned rows to
  /// `feed_rows`.  Returns false at the end of the log.  Rethrows a lane's
  /// error, and reports a unit that starts before its predecessor ends,
  /// in log order.
  bool advance(std::vector<Record>& feed_rows, trace::ProxyPools& pools) {
    for (;;) {
      if (unit_ != nullptr && unit_->error) {
        std::rethrow_exception(unit_->error);
      }
      Lane<Record>& lane = *lanes_[next_lane_];
      std::uint32_t slot = 0;
      if (!lane.handoff.pop(slot)) {
        unit_ = nullptr;
        return false;
      }
      next_lane_ = (next_lane_ + 1) % lanes_.size();
      unit_ = &lane.units[slot];
      for (const std::string& s : unit_->new_hosts)
        lane.host_ids.push_back(pools.hosts.intern(s));
      for (const std::string& s : unit_->new_paths)
        lane.path_ids.push_back(pools.paths.intern(s));
      if (unit_->stamps.empty()) continue;
      if (started_ && trace::ByTimeThenUser{}(unit_->first, last_)) {
        throw util::ParseError(path_ + ": " + kUnsorted);
      }
      started_ = true;
      last_ = unit_->last;
      const std::size_t base = feed_rows.size();
      feed_rows.insert(feed_rows.end(), unit_->owned_rows.begin(),
                       unit_->owned_rows.end());
      if constexpr (!trace::PoolFree<Record>) {
        for (std::size_t i = base; i < feed_rows.size(); ++i) {
          feed_rows[i].host_id = lane.host_ids[feed_rows[i].host_id];
          feed_rows[i].path_id = lane.path_ids[feed_rows[i].path_id];
        }
      }
      at_ = 0;
      run_ = 0;
      run_owned_ = unit_->first_run_owned;
      return true;
    }
  }

  /// The stamp of the next row to merge (the current unit must hold one).
  [[nodiscard]] util::SimTime head() const noexcept {
    return unit_->stamps[at_];
  }

  /// Adds the rows from the next one up to the first whose stamp `stop`
  /// accepts (at least one row; at most the rest of the unit) to the op
  /// script, and returns how many it added.
  template <typename Stop>
  std::size_t take(std::vector<std::uint32_t>& ops, FeedOp push, FeedOp skip,
                   Stop stop) {
    const std::vector<util::SimTime>& stamps = unit_->stamps;
    const std::size_t from = at_;
    std::size_t end = at_ + 1;
    while (end < stamps.size() && !stop(stamps[end])) ++end;
    while (at_ < end) {
      const std::size_t run_end = unit_->run_ends[run_];
      const std::size_t to = std::min(run_end, end);
      append_ops(ops, run_owned_ ? push : skip, to - at_);
      at_ = to;
      if (to == run_end) {
        ++run_;
        run_owned_ = !run_owned_;
      }
    }
    return end - from;
  }

  /// True once take() has consumed the current unit.
  [[nodiscard]] bool unit_done() const noexcept {
    return at_ == unit_->stamps.size();
  }

 private:
  static constexpr const char* kUnsorted =
      "log is not (time, user)-sorted — sort the bundle before streaming a "
      "partition feed";

  /// The body of a lane thread: decodes the lane's units one by one and
  /// hands each over, then the error that stopped it, if any.
  void decode(Lane<Record>& lane) {
    std::uint32_t slot = 0;  // units[slot] takes the lane's next unit
    const auto next_slot = [&lane, &slot] {
      slot = static_cast<std::uint32_t>((slot + 1) % lane.units.size());
    };
    try {
      for (;; next_slot()) {
        DecodedUnit<Record>& unit = lane.units[slot];
        const std::size_t hosts = lane.cursor.pools().hosts.size();
        const std::size_t paths = lane.cursor.pools().paths.size();
        if (!next_unit(lane)) break;
        tag(lane, unit, hosts, paths);
        if (!lane.handoff.push(slot)) return;  // the merge gave up
        if (unit.error) break;
      }
    } catch (...) {
      DecodedUnit<Record>& unit = lane.units[slot];
      unit.stamps.clear();
      unit.new_hosts.clear();
      unit.new_paths.clear();
      unit.error = std::current_exception();
      (void)lane.handoff.push(slot);
    }
    lane.handoff.close();
  }

  /// LogCursor::next_unit, naming the file on damage.
  bool next_unit(Lane<Record>& lane) {
    try {
      return lane.cursor.next_unit(lane.rows);
    } catch (const util::ParseError& e) {
      throw util::ParseError(path_ + ": " + e.what());
    }
  }

  /// Fills `unit` from the lane's decoded rows: the pool entries from
  /// `hosts`/`paths` on are the unit's new strings.  Stops at a row that
  /// sorts before its predecessor and records the error after the rows
  /// before it, so the merge fails at that row.
  void tag(Lane<Record>& lane, DecodedUnit<Record>& unit, std::size_t hosts,
           std::size_t paths) const {
    const trace::ProxyPools& pools = lane.cursor.pools();
    unit.new_hosts.assign(pools.hosts.strings().begin() +
                              static_cast<std::ptrdiff_t>(hosts),
                          pools.hosts.strings().end());
    unit.new_paths.assign(pools.paths.strings().begin() +
                              static_cast<std::ptrdiff_t>(paths),
                          pools.paths.strings().end());
    unit.error = nullptr;
    unit.run_ends.clear();
    unit.owned_rows.clear();
    const std::vector<Record>& rows = lane.rows;
    unit.stamps.resize(rows.size());
    std::size_t i = 0;
    bool owned_run = false;
    for (; i < rows.size(); ++i) {
      const Record& r = rows[i];
      if (i > 0 && trace::ByTimeThenUser{}(r, rows[i - 1])) {
        unit.error = std::make_exception_ptr(
            util::ParseError(path_ + ": " + kUnsorted));
        break;
      }
      unit.stamps[i] = r.timestamp;
      const bool owned =
          par::shard_of(r.user_id, partition_count_) == partition_id_;
      if (i == 0) {
        unit.first_run_owned = owned;
      } else if (owned != owned_run) {
        unit.run_ends.push_back(static_cast<std::uint32_t>(i));
      }
      owned_run = owned;
      if (owned) unit.owned_rows.push_back(r);
    }
    unit.stamps.resize(i);
    if (i == 0) return;
    unit.run_ends.push_back(static_cast<std::uint32_t>(i));
    unit.first = rows.front();
    unit.last = rows[i - 1];
  }

  std::string path_;
  std::size_t partition_id_ = 0;
  std::size_t partition_count_ = 1;
  trace::ClaimedRecords claimed_;
  std::vector<std::unique_ptr<Lane<Record>>> lanes_;
  // Merge side.
  std::size_t next_lane_ = 0;
  const DecodedUnit<Record>* unit_ = nullptr;
  std::size_t at_ = 0;   ///< Next row of unit_.
  std::size_t run_ = 0;  ///< The run of unit_ that holds row at_.
  bool run_owned_ = false;
  bool started_ = false;
  Record last_;  ///< The last row of the previous unit that held rows.
};

}  // namespace

namespace detail {

FeedLanes default_feed_lanes() {
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  FeedLanes lanes;
  lanes.proxy = std::clamp<std::size_t>(cores - 1, 1, kMaxProxyLanes);
  return lanes;
}

PartitionFeed load_partition_feed(const std::filesystem::path& dir,
                                  std::size_t partition_id,
                                  std::size_t partition_count,
                                  FeedLanes lanes) {
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

  LogFeed<trace::ProxyRecord> p(dir / "proxy.bin", partition_id,
                                partition_count, lanes.proxy);
  LogFeed<trace::MmeRecord> m(dir / "mme.bin", partition_id, partition_count,
                              lanes.mme);
  // One allocation per vector, never a reallocation: room for every row
  // the headers claim (every op covers at least one), of which only the
  // owned rows' and the ops' pages are ever touched.
  feed.proxy.reserve(p.claimed());
  feed.mme.reserve(m.claimed());
  feed.ops.reserve(p.claimed() + m.claimed());
  trace::ProxyPools& pools = feed;
  bool p_live = p.advance(feed.proxy, pools);
  bool m_live = m.advance(feed.mme, pools);
  while (p_live || m_live) {
    // live::walk_feed's order exactly (MME before proxy on equal stamps),
    // applied to runs of the on-disk units instead of an in-memory store.
    if (m_live && (!p_live || m.head() <= p.head())) {
      const util::SimTime p_head =
          p_live ? p.head() : std::numeric_limits<util::SimTime>::max();
      feed.feed_records +=
          m.take(feed.ops, FeedOp::kPushMme, FeedOp::kSkipMme,
                 [p_head](util::SimTime t) { return t > p_head; });
      if (m.unit_done()) m_live = m.advance(feed.mme, pools);
    } else {
      const util::SimTime m_head =
          m_live ? m.head() : std::numeric_limits<util::SimTime>::max();
      feed.feed_records +=
          p.take(feed.ops, FeedOp::kPushProxy, FeedOp::kSkipProxy,
                 [m_head](util::SimTime t) { return t >= m_head; });
      if (p.unit_done()) p_live = p.advance(feed.proxy, pools);
    }
  }
  return feed;
}

}  // namespace detail

PartitionFeed load_partition_feed(const std::filesystem::path& dir,
                                  std::size_t partition_id,
                                  std::size_t partition_count) {
  return detail::load_partition_feed(dir, partition_id, partition_count,
                                     detail::default_feed_lanes());
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
