// Unit tests for the in-memory TraceStore.
#include "trace/store.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "par/task_pool.h"
#include "row_oracle.h"
#include "test_support.h"
#include "util/rng.h"

namespace wearscope::trace {
namespace {

ProxyRecord proxy_host(ProxyPools& pools, util::SimTime t, UserId u,
                       const char* host) {
  ProxyRecord r;
  r.timestamp = t;
  r.user_id = u;
  testing::set_strings(r, pools, host);
  r.bytes_up = 10;
  r.bytes_down = 90;
  return r;
}

ProxyRecord proxy_at(ProxyPools& pools, util::SimTime t, UserId u) {
  return proxy_host(pools, t, u, "x.example");
}

MmeRecord mme_at(util::SimTime t, UserId u, SectorId s) {
  return MmeRecord{t, u, 1, MmeEvent::kAttach, s};
}

TEST(TraceStore, SortByTimeThenUser) {
  TraceStore s;
  s.proxy = {proxy_at(s, 10, 2), proxy_at(s, 5, 1), proxy_at(s, 10, 1)};
  s.mme = {mme_at(9, 3, 1), mme_at(1, 1, 2)};
  EXPECT_FALSE(s.is_sorted());
  s.sort_by_time();
  EXPECT_TRUE(s.is_sorted());
  EXPECT_EQ(s.proxy[0].timestamp, 5);
  EXPECT_EQ(s.proxy[1].user_id, 1u);  // ties broken by user id
  EXPECT_EQ(s.proxy[2].user_id, 2u);
  EXPECT_EQ(s.mme[0].timestamp, 1);
}

TEST(TraceStore, SortOnSortedStoreIsIdentity) {
  // Tied (time, user) rows differ only in host / sector, so any reordering
  // among them — which a stable sort must not do — would show.
  TraceStore s;
  s.proxy = {proxy_host(s, 5, 1, "a.example"), proxy_host(s, 5, 1, "b.example"),
             proxy_host(s, 5, 1, "c.example"), proxy_host(s, 7, 2, "d.example"),
             proxy_host(s, 7, 2, "a.example")};
  s.mme = {mme_at(3, 1, 30), mme_at(3, 1, 10), mme_at(3, 1, 20),
           mme_at(4, 2, 5)};
  ASSERT_TRUE(s.is_sorted());
  const Rows<ProxyRecord> proxy_before = s.proxy;
  const Rows<MmeRecord> mme_before = s.mme;

  s.sort_by_time();
  EXPECT_EQ(s.proxy, proxy_before);
  EXPECT_EQ(s.mme, mme_before);
}

TEST(TraceStore, SortFixesOnlyTheUnsortedLog) {
  TraceStore s;
  s.proxy = {proxy_host(s, 9, 1, "late.example"), proxy_host(s, 2, 1, "a.example"),
             proxy_host(s, 2, 1, "b.example")};
  s.mme = {mme_at(1, 1, 30), mme_at(1, 1, 10), mme_at(6, 2, 5)};
  const Rows<MmeRecord> mme_before = s.mme;

  s.sort_by_time();
  EXPECT_TRUE(s.is_sorted());
  ASSERT_EQ(s.proxy.size(), 3u);
  EXPECT_EQ(s.hosts[s.proxy[0].host_id], "a.example");  // stable among the tie
  EXPECT_EQ(s.hosts[s.proxy[1].host_id], "b.example");
  EXPECT_EQ(s.hosts[s.proxy[2].host_id], "late.example");
  // The pool is renumbered into first-appearance order over the sorted rows.
  EXPECT_EQ(s.hosts.strings(),
            (std::vector<std::string>{"a.example", "b.example",
                                      "late.example"}));
  EXPECT_EQ(s.mme, mme_before);

  // The mirror case: only the MME log is out of order.
  const Rows<ProxyRecord> proxy_before = s.proxy;
  s.mme = {mme_at(8, 3, 1), mme_at(1, 1, 30), mme_at(1, 1, 10)};
  s.sort_by_time();
  EXPECT_TRUE(s.is_sorted());
  EXPECT_EQ(s.proxy, proxy_before);
  EXPECT_EQ(s.mme[0].sector_id, 30u);
  EXPECT_EQ(s.mme[1].sector_id, 10u);
  EXPECT_EQ(s.mme[2].timestamp, 8);
}

TEST(TraceStore, SummarizeCounts) {
  TraceStore s;
  s.proxy = {proxy_at(s, 5, 1), proxy_at(s, 7, 1), proxy_at(s, 9, 2)};
  s.mme = {mme_at(1, 1, 3), mme_at(2, 3, 4)};
  s.devices = {{1, "m", "v", "os"}};
  s.sectors = {{3, {0, 0}}, {4, {1, 1}}};
  const TraceSummary sum = s.summarize();
  EXPECT_EQ(sum.proxy_records, 3u);
  EXPECT_EQ(sum.mme_records, 2u);
  EXPECT_EQ(sum.devices, 1u);
  EXPECT_EQ(sum.sectors, 2u);
  EXPECT_EQ(sum.distinct_proxy_users, 2u);
  EXPECT_EQ(sum.distinct_mme_users, 2u);
  EXPECT_EQ(sum.total_bytes, 300u);
  EXPECT_EQ(sum.first_timestamp, 1);
  EXPECT_EQ(sum.last_timestamp, 9);
}

TEST(TraceStore, SummarizeEmpty) {
  const TraceSummary sum = TraceStore{}.summarize();
  EXPECT_EQ(sum.proxy_records, 0u);
  EXPECT_EQ(sum.total_bytes, 0u);
}

TEST(TraceStore, DeviceAndSectorLookup) {
  TraceStore s;
  s.devices = {{100, "Gear S3", "Samsung", "Tizen"}, {200, "iPhone", "Apple", "iOS"}};
  s.sectors = {{7, {40.0, -3.0}}};
  const auto dev = s.find_device(100);
  ASSERT_TRUE(dev.has_value());
  EXPECT_EQ(dev->model, "Gear S3");
  EXPECT_FALSE(s.find_device(300).has_value());
  const auto sec = s.find_sector(7);
  ASSERT_TRUE(sec.has_value());
  EXPECT_DOUBLE_EQ(sec->position.lat_deg, 40.0);
  EXPECT_FALSE(s.find_sector(8).has_value());
}

TEST(TraceStore, RebuildIndexesAfterMutation) {
  TraceStore s;
  s.devices = {{100, "a", "b", "c"}};
  EXPECT_TRUE(s.find_device(100).has_value());
  s.devices.push_back({200, "d", "e", "f"});
  s.rebuild_indexes();
  EXPECT_TRUE(s.find_device(200).has_value());
}

// ---- The sliced sortedness check against the sequential oracle ----------

constexpr std::size_t kSliceCounts[] = {1, 2, 3, 4, 8};

/// A canonical store: `proxy_rows` proxy rows over a few hosts and paths,
/// interned in row order, and `mme_rows` MME rows, both in time order.
TraceStore sorted_store(std::size_t proxy_rows, std::size_t mme_rows) {
  TraceStore s;
  for (std::size_t i = 0; i < proxy_rows; ++i) {
    ProxyRecord r;
    r.timestamp = static_cast<util::SimTime>(i / 2);
    r.user_id = static_cast<UserId>(i % 2 + 1);
    testing::set_strings(r, s, "h" + std::to_string(i / 5 % 7),
                         "/p" + std::to_string(i / 3 % 4));
    s.proxy.push_back(r);
  }
  for (std::size_t i = 0; i < mme_rows; ++i) {
    s.mme.push_back(mme_at(static_cast<util::SimTime>(i / 3),
                           static_cast<UserId>(i % 3 + 1),
                           static_cast<SectorId>(i)));
  }
  return s;
}

/// The sliced check agrees with the oracle at every slice count, and so
/// does is_sorted().
void expect_oracle_answer(const TraceStore& s, const std::string& what) {
  const bool want = oracle::sorted_rows(s);
  for (const std::size_t slices : kSliceCounts) {
    EXPECT_EQ(is_sorted_in_slices(s, slices), want)
        << what << ", " << slices << " slices";
  }
  EXPECT_EQ(s.is_sorted(), want) << what;
}

/// Where the first slice of `rows` rows cut into `slices` slices ends.
std::size_t first_boundary(std::size_t rows, std::size_t slices) {
  return par::slice_bounds(rows, slices,
                           [](std::size_t i) -> std::uint64_t { return i; })[1];
}

TEST(TraceStoreSorted, RandomPerturbationsMatchTheOracle) {
  const TraceStore base = sorted_store(97, 61);
  ASSERT_TRUE(oracle::sorted_rows(base));
  util::Pcg32 rng(17);
  int sorted_cases = 0;
  for (int trial = 0; trial < 400; ++trial) {
    TraceStore s = base;
    const auto pick = [&rng](std::size_t n) {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    switch (trial % 6) {
      case 0:  // swap two proxy rows
        std::swap(s.proxy[pick(s.proxy.size())], s.proxy[pick(s.proxy.size())]);
        break;
      case 1:  // swap two MME rows
        std::swap(s.mme[pick(s.mme.size())], s.mme[pick(s.mme.size())]);
        break;
      case 2:  // rename one row's host to another pool entry
        s.proxy[pick(s.proxy.size())].host_id =
            static_cast<std::uint32_t>(pick(s.hosts.size()));
        break;
      case 3:  // rename one row's path, possibly past the pool
        s.proxy[pick(s.proxy.size())].path_id =
            static_cast<std::uint32_t>(pick(s.paths.size() + 1));
        break;
      case 4:  // shift one row's time by one second either way
        s.proxy[pick(s.proxy.size())].timestamp +=
            rng.uniform_int(0, 1) == 0 ? -1 : 1;
        break;
      default:  // a pool entry no row uses
        if (rng.uniform_int(0, 1) == 0) (void)s.paths.intern("/unused");
        break;
    }
    sorted_cases += oracle::sorted_rows(s) ? 1 : 0;
    expect_oracle_answer(s, "trial " + std::to_string(trial));
  }
  // Both answers occur.
  EXPECT_GT(sorted_cases, 20);
  EXPECT_LT(sorted_cases, 380);
}

TEST(TraceStoreSorted, SliceBoundaryOrderMatchesTheOracle) {
  for (const std::size_t slices : {2, 3, 4, 8}) {
    const std::size_t cut = first_boundary(40, slices);
    // A descending pair straddling the first boundary.
    TraceStore descending = sorted_store(40, 40);
    std::swap(descending.proxy[cut - 1].timestamp,
              descending.proxy[cut].timestamp);
    descending.proxy[cut - 1].timestamp += 1;
    ASSERT_FALSE(oracle::sorted_rows(descending));
    EXPECT_FALSE(is_sorted_in_slices(descending, slices)) << slices;
    expect_oracle_answer(descending, "descending proxy pair");
    TraceStore mme_descending = sorted_store(40, 40);
    mme_descending.mme[cut - 1].timestamp =
        mme_descending.mme[cut].timestamp + 1;
    EXPECT_FALSE(is_sorted_in_slices(mme_descending, slices)) << slices;
    expect_oracle_answer(mme_descending, "descending MME pair");
    // An equal (time, user) tie across the boundary is in order.
    TraceStore tie = sorted_store(40, 40);
    tie.proxy[cut].timestamp = tie.proxy[cut - 1].timestamp;
    tie.proxy[cut].user_id = tie.proxy[cut - 1].user_id;
    tie.mme[cut].timestamp = tie.mme[cut - 1].timestamp;
    tie.mme[cut].user_id = tie.mme[cut - 1].user_id;
    ASSERT_TRUE(oracle::sorted_rows(tie));
    EXPECT_TRUE(is_sorted_in_slices(tie, slices)) << slices;
    expect_oracle_answer(tie, "tie across the boundary");
  }
}

TEST(TraceStoreSorted, FirstUseInALaterSliceMatchesTheOracle) {
  // Host "late" is first used in the last slice: canonical only when it
  // is the last host id.
  TraceStore late_last = sorted_store(32, 4);
  late_last.proxy.back().host_id = late_last.hosts.intern("late");
  ASSERT_TRUE(oracle::sorted_rows(late_last));
  expect_oracle_answer(late_last, "new host in the last slice, last id");

  // The same rows, the ids of "late" and of the first host swapped: the
  // first row now names an id first handed out in the last slice.
  TraceStore late_first = late_last;
  const auto last_id = static_cast<std::uint32_t>(late_first.hosts.size() - 1);
  for (ProxyRecord& r : late_first.proxy) {
    if (r.host_id == 0) {
      r.host_id = last_id;
    } else if (r.host_id == last_id) {
      r.host_id = 0;
    }
  }
  ASSERT_FALSE(oracle::sorted_rows(late_first));
  expect_oracle_answer(late_first, "id 0 first used in the last slice");

  // A row that names path 1 before any row names path 0.
  TraceStore crossed = sorted_store(32, 4);
  crossed.proxy[0].path_id = 1;
  ASSERT_FALSE(oracle::sorted_rows(crossed));
  expect_oracle_answer(crossed, "path 1 before path 0");
}

TEST(TraceStoreSorted, IdPastThePoolMatchesTheOracle) {
  for (const std::size_t row : {0, 17, 31}) {
    const std::string at = " at row " + std::to_string(row);
    TraceStore host = sorted_store(32, 4);
    host.proxy[row].host_id = static_cast<std::uint32_t>(host.hosts.size());
    expect_oracle_answer(host, "host id == pool size" + at);
    TraceStore path = sorted_store(32, 4);
    path.proxy[row].path_id = 1'000'000;
    expect_oracle_answer(path, "path id past the pool" + at);
  }
}

TEST(TraceStoreSorted, EmptyAndShortLogsMatchTheOracle) {
  expect_oracle_answer(TraceStore{}, "empty store");
  TraceStore empty_with_pool;
  (void)empty_with_pool.hosts.intern("orphan");
  expect_oracle_answer(empty_with_pool, "empty log, non-empty pool");
  for (const std::size_t rows : {1, 2, 3, 5, 7}) {
    expect_oracle_answer(sorted_store(rows, 0), "proxy only, short");
    expect_oracle_answer(sorted_store(0, rows), "MME only, short");
    TraceStore unsorted = sorted_store(rows, rows);
    if (rows >= 2) {
      unsorted.mme.front().timestamp = 100;
      expect_oracle_answer(unsorted, "short, MME out of order");
    }
  }
}

}  // namespace
}  // namespace wearscope::trace
