// Unit tests for usage sessionization (the 60-second-gap rule of §5.1).
#include "core/sessionize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "util/error.h"

namespace wearscope::core {
namespace {

trace::ProxyRecord rec(util::SimTime t, std::uint64_t bytes = 100) {
  trace::ProxyRecord r;
  r.timestamp = t;
  r.user_id = 7;
  r.bytes_down = bytes;
  return r;
}

EndpointClass app(appdb::AppId id) {
  return EndpointClass{appdb::TransactionClass::kApplication, id};
}

std::vector<Usage> run(const trace::Rows<trace::ProxyRecord>& recs,
                       const std::vector<EndpointClass>& apps,
                       util::SimTime gap = kDefaultUsageGapS) {
  std::vector<std::uint32_t> rows(recs.size());
  std::iota(rows.begin(), rows.end(), 0u);
  return sessionize_user(recs, rows, apps, gap);
}

TEST(Sessionize, SingleUsageWithinGap) {
  const auto usages = run({rec(0), rec(30), rec(59)},
                          {app(1), app(1), app(1)});
  ASSERT_EQ(usages.size(), 1u);
  EXPECT_EQ(usages[0].transactions, 3u);
  EXPECT_EQ(usages[0].bytes, 300u);
  EXPECT_EQ(usages[0].start, 0);
  EXPECT_EQ(usages[0].end, 59);
  EXPECT_EQ(usages[0].duration_s(), 59);
  EXPECT_EQ(usages[0].user_id, 7u);
  EXPECT_EQ(usages[0].app, 1u);
}

TEST(Sessionize, GapOverThresholdSplits) {
  const auto usages = run({rec(0), rec(61)}, {app(1), app(1)});
  ASSERT_EQ(usages.size(), 2u);
  EXPECT_EQ(usages[0].transactions, 1u);
  EXPECT_EQ(usages[1].start, 61);
}

TEST(Sessionize, GapExactlyAtThresholdDoesNotSplit) {
  // "at least one minute apart" splits; 60 s exactly keeps the usage.
  const auto usages = run({rec(0), rec(60)}, {app(1), app(1)});
  EXPECT_EQ(usages.size(), 1u);
}

TEST(Sessionize, DifferentAppsInterleaveWithoutSplitting) {
  const auto usages = run({rec(0), rec(10), rec(20), rec(30)},
                          {app(1), app(2), app(1), app(2)});
  ASSERT_EQ(usages.size(), 2u);
  // Sorted by start.
  EXPECT_EQ(usages[0].app, 1u);
  EXPECT_EQ(usages[0].transactions, 2u);
  EXPECT_EQ(usages[1].app, 2u);
  EXPECT_EQ(usages[1].transactions, 2u);
}

TEST(Sessionize, UnknownAppFormsItsOwnUsages) {
  const auto usages = run({rec(0), rec(10)}, {app(1), app(kUnknownApp)});
  ASSERT_EQ(usages.size(), 2u);
  EXPECT_EQ(usages[1].app, kUnknownApp);
}

TEST(Sessionize, CustomGap) {
  const auto tight = run({rec(0), rec(10)}, {app(1), app(1)}, 5);
  EXPECT_EQ(tight.size(), 2u);
  const auto loose = run({rec(0), rec(10)}, {app(1), app(1)}, 15);
  EXPECT_EQ(loose.size(), 1u);
}

TEST(Sessionize, EmptyInput) {
  EXPECT_TRUE(run({}, {}).empty());
}

TEST(Sessionize, SizeMismatchThrows) {
  const trace::Rows<trace::ProxyRecord> recs = {rec(0)};
  const std::vector<std::uint32_t> rows = {0};
  EXPECT_THROW(sessionize_user(recs, rows, {}, 60), util::ConfigError);
}

TEST(Sessionize, ManyUsagesSortedByStart) {
  trace::Rows<trace::ProxyRecord> recs;
  std::vector<EndpointClass> apps_v;
  for (int u = 0; u < 10; ++u) {
    recs.push_back(rec(u * 1000));
    recs.push_back(rec(u * 1000 + 20));
    apps_v.push_back(app(1));
    apps_v.push_back(app(1));
  }
  const auto usages = run(recs, apps_v);
  ASSERT_EQ(usages.size(), 10u);
  for (std::size_t i = 1; i < usages.size(); ++i) {
    EXPECT_GT(usages[i].start, usages[i - 1].start);
    EXPECT_EQ(usages[i].transactions, 2u);
  }
}

}  // namespace
}  // namespace wearscope::core
