// Unit tests for the in-memory TraceStore.
#include "trace/store.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "test_support.h"

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
  const std::vector<ProxyRecord> proxy_before = s.proxy;
  const std::vector<MmeRecord> mme_before = s.mme;

  s.sort_by_time();
  EXPECT_EQ(s.proxy, proxy_before);
  EXPECT_EQ(s.mme, mme_before);
}

TEST(TraceStore, SortFixesOnlyTheUnsortedLog) {
  TraceStore s;
  s.proxy = {proxy_host(s, 9, 1, "late.example"), proxy_host(s, 2, 1, "a.example"),
             proxy_host(s, 2, 1, "b.example")};
  s.mme = {mme_at(1, 1, 30), mme_at(1, 1, 10), mme_at(6, 2, 5)};
  const std::vector<MmeRecord> mme_before = s.mme;

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
  const std::vector<ProxyRecord> proxy_before = s.proxy;
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

}  // namespace
}  // namespace wearscope::trace
