// Tests for the release-safe anonymization pass: identifiers become
// unlinkable across keys but joinable within one key, and every analysis
// still works on the anonymized capture.
#include "trace/anonymize.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "core/pipeline.h"
#include "simnet/simulator.h"
#include "test_support.h"
#include "util/error.h"

namespace wearscope::trace {
namespace {

TEST(AnonymizeUserId, StableWithinKeyDistinctAcrossKeys) {
  EXPECT_EQ(anonymize_user_id(42, 7), anonymize_user_id(42, 7));
  EXPECT_NE(anonymize_user_id(42, 7), anonymize_user_id(42, 8));
  EXPECT_NE(anonymize_user_id(42, 7), anonymize_user_id(43, 7));
  // The mapping must not be the identity.
  EXPECT_NE(anonymize_user_id(42, 7), 42u);
}

TEST(AnonymizeUserId, InjectiveOnRealisticIdRange) {
  std::unordered_set<UserId> seen;
  for (UserId id = 1'000'000; id < 1'050'000; ++id) {
    ASSERT_TRUE(seen.insert(anonymize_user_id(id, 99)).second)
        << "collision at " << id;
  }
}

TEST(Anonymize, RewritesIdsHostsPathsAndTimes) {
  TraceStore store;
  ProxyRecord p;
  p.timestamp = 3723;  // 01:02:03
  p.user_id = 5;
  p.tac = 1;
  testing::set_strings(p, store, "api.weather.com", "/v1/secret?user=5");
  p.bytes_down = 100;
  store.proxy.push_back(p);
  store.mme.push_back({3724, 5, 1, MmeEvent::kAttach, 9});

  AnonymizePolicy policy;
  policy.key = 1234;
  policy.time_quantum_s = 60;
  anonymize(store, policy);

  EXPECT_EQ(store.proxy[0].user_id, anonymize_user_id(5, 1234));
  EXPECT_EQ(store.proxy[0].user_id, store.mme[0].user_id)
      << "joinability across vantage points must survive";
  EXPECT_EQ(store.hosts[store.proxy[0].host_id], "weather.com");
  EXPECT_TRUE(store.paths[store.proxy[0].path_id].empty());
  EXPECT_EQ(store.proxy[0].timestamp, 3720);  // floored to the minute
  EXPECT_EQ(store.mme[0].timestamp, 3720);
  EXPECT_EQ(store.proxy[0].bytes_down, 100u);  // volumes untouched
  EXPECT_EQ(store.mme[0].sector_id, 9u);       // infrastructure untouched
}

TEST(Anonymize, PolicyTogglesRespected) {
  TraceStore store;
  ProxyRecord p;
  p.timestamp = 100;
  p.user_id = 5;
  testing::set_strings(p, store, "api.weather.com", "/x");
  store.proxy.push_back(p);

  AnonymizePolicy policy;
  policy.coarsen_hosts = false;
  policy.drop_url_paths = false;
  anonymize(store, policy);
  EXPECT_EQ(store.hosts[store.proxy[0].host_id], "api.weather.com");
  EXPECT_EQ(store.paths[store.proxy[0].path_id], "/x");
  EXPECT_EQ(store.proxy[0].timestamp, 100);  // quantum 1 keeps exact times
}

TEST(Anonymize, CoarseningMergesHostsIntoOnePoolId) {
  // Two hosts under one registrable domain, and two paths, must each
  // collapse to one pool entry that every row shares.
  TraceStore store;
  for (int i = 0; i < 4; ++i) {
    ProxyRecord p;
    p.timestamp = 100 + i;
    p.user_id = 5;
    testing::set_strings(p, store,
                         i % 2 == 0 ? "api.weather.com" : "img.weather.com",
                         i % 2 == 0 ? "/a" : "/b");
    store.proxy.push_back(p);
  }
  ASSERT_EQ(store.hosts.size(), 2u);
  anonymize(store, AnonymizePolicy{});
  EXPECT_EQ(store.hosts.strings(), std::vector<std::string>{"weather.com"});
  EXPECT_EQ(store.paths.strings(), std::vector<std::string>{""});
  for (const ProxyRecord& r : store.proxy) {
    EXPECT_EQ(r.host_id, 0u);
    EXPECT_EQ(r.path_id, 0u);
  }
  EXPECT_TRUE(store.is_sorted());
}

TEST(Anonymize, RejectsBadQuantum) {
  TraceStore store;
  AnonymizePolicy policy;
  policy.time_quantum_s = 0;
  EXPECT_THROW(anonymize(store, policy), util::ConfigError);
}

TEST(Anonymize, FullPipelineStillPassesOnAnonymizedCapture) {
  simnet::SimConfig cfg = simnet::SimConfig::small();
  cfg.seed = 11;
  const simnet::SimResult sim = simnet::Simulator(cfg).run();

  TraceStore anon = sim.store;
  AnonymizePolicy policy;
  policy.key = 0xFEED;
  anonymize(anon, policy);

  core::AnalysisOptions opt;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.detailed_start_day;
  opt.long_tail_apps = cfg.long_tail_apps;
  const core::Pipeline pipeline(anon, opt);
  const core::StudyReport report = pipeline.run();

  // The registrable-domain fallback keeps most traffic attributable, but
  // shared platforms (googleapis.com serves Maps, Pay, Street-View, ...)
  // become irreducibly ambiguous once hosts are coarsened.
  EXPECT_LT(report.apps.unknown_traffic_fraction, 0.45);
  // ...and the headline adoption statistics are identity-independent.
  const core::Pipeline original(sim.store, opt);
  const core::StudyReport base = original.run();
  EXPECT_EQ(report.adoption.ever_registered, base.adoption.ever_registered);
  EXPECT_DOUBLE_EQ(report.adoption.ever_transacting_fraction,
                   base.adoption.ever_transacting_fraction);
  EXPECT_DOUBLE_EQ(report.comparison.data_ratio, base.comparison.data_ratio);
}

}  // namespace
}  // namespace wearscope::trace
