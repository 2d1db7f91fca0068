// Tests for the streaming (single-pass) adoption analysis: it must agree
// exactly with the batch analyze_adoption() on the same capture.
#include "core/streaming.h"

#include <gtest/gtest.h>

#include "core/context.h"
#include "simnet/simulator.h"
#include "util/error.h"

namespace wearscope::core {
namespace {

TEST(StreamingAdoption, MatchesBatchAnalysisExactly) {
  simnet::SimConfig cfg = simnet::SimConfig::small();
  cfg.seed = 21;
  const simnet::SimResult sim = simnet::Simulator(cfg).run();

  AnalysisOptions opt;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.detailed_start_day;
  opt.long_tail_apps = cfg.long_tail_apps;
  const AnalysisContext ctx(sim.store, opt);
  const AdoptionResult batch = analyze_adoption(ctx);

  // Stream the already time-sorted logs record by record.
  const DeviceClassifier devices(sim.store.devices);
  StreamingAdoption streaming(devices, sim.observation_days);
  for (const trace::MmeRecord& r : sim.store.mme) streaming.on_mme(r);
  for (const trace::ProxyRecord& r : sim.store.proxy) streaming.on_proxy(r);
  const AdoptionResult online = streaming.finalize();

  EXPECT_EQ(online.ever_registered, batch.ever_registered);
  EXPECT_EQ(online.ever_transacted, batch.ever_transacted);
  EXPECT_DOUBLE_EQ(online.ever_transacting_fraction,
                   batch.ever_transacting_fraction);
  EXPECT_DOUBLE_EQ(online.total_growth, batch.total_growth);
  EXPECT_DOUBLE_EQ(online.monthly_growth, batch.monthly_growth);
  EXPECT_DOUBLE_EQ(online.still_active_share, batch.still_active_share);
  EXPECT_DOUBLE_EQ(online.gone_share, batch.gone_share);
  EXPECT_DOUBLE_EQ(online.new_share, batch.new_share);
  EXPECT_DOUBLE_EQ(online.churned_of_initial, batch.churned_of_initial);
  ASSERT_EQ(online.daily_registered_norm.size(),
            batch.daily_registered_norm.size());
  for (std::size_t d = 0; d < online.daily_registered_norm.size(); ++d) {
    EXPECT_DOUBLE_EQ(online.daily_registered_norm[d],
                     batch.daily_registered_norm[d])
        << "day " << d;
  }
  EXPECT_EQ(streaming.records_consumed(),
            sim.store.mme.size() + sim.store.proxy.size());
}

TEST(StreamingAdoption, FinalizeIsIdempotentMidStream) {
  const DeviceClassifier devices(
      {{35254208, "Gear S3 frontier LTE", "Samsung", "Tizen"}});
  StreamingAdoption streaming(devices, 28);
  trace::MmeRecord r{util::day_start(0) + 100, 1, 35254208,
                     trace::MmeEvent::kAttach, 1};
  streaming.on_mme(r);
  const AdoptionResult first = streaming.finalize();
  EXPECT_EQ(first.ever_registered, 1u);
  EXPECT_DOUBLE_EQ(first.daily_registered_norm[0], 0.0);  // last day empty
  // finalize() is const: feeding more afterwards still works.
  r.timestamp = util::day_start(27);
  r.user_id = 2;
  streaming.on_mme(r);
  const AdoptionResult second = streaming.finalize();
  EXPECT_EQ(second.ever_registered, 2u);
  EXPECT_DOUBLE_EQ(second.daily_registered_norm[27], 1.0);
}

TEST(StreamingAdoption, IgnoresNonWearableAndOutOfWindow) {
  const DeviceClassifier devices(
      {{35254208, "Gear S3 frontier LTE", "Samsung", "Tizen"},
       {35332008, "iPhone 7", "Apple", "iOS"}});
  StreamingAdoption streaming(devices, 28);
  streaming.on_mme({util::day_start(1), 1, 35332008,
                    trace::MmeEvent::kAttach, 1});  // phone: ignored
  streaming.on_mme({util::day_start(99), 2, 35254208,
                    trace::MmeEvent::kAttach, 1});  // beyond window
  streaming.on_proxy([] {
    trace::ProxyRecord p;
    p.timestamp = util::day_start(1);
    p.user_id = 3;
    p.tac = 35332008;  // phone proxy: ignored
    return p;
  }());
  const AdoptionResult r = streaming.finalize();
  EXPECT_EQ(r.ever_registered, 0u);
  EXPECT_EQ(r.ever_transacted, 0u);
  EXPECT_EQ(streaming.records_consumed(), 3u);
}

TEST(StreamingAdoption, RejectsDayRegression) {
  const DeviceClassifier devices(
      {{35254208, "Gear S3 frontier LTE", "Samsung", "Tizen"}});
  StreamingAdoption streaming(devices, 28);
  streaming.on_mme({util::day_start(5), 1, 35254208,
                    trace::MmeEvent::kAttach, 1});
  EXPECT_THROW(streaming.on_mme({util::day_start(4), 1, 35254208,
                                 trace::MmeEvent::kAttach, 1}),
               util::ConfigError);
}

TEST(StreamingAdoption, RejectsBadWindow) {
  const DeviceClassifier devices({});
  EXPECT_THROW(StreamingAdoption(devices, 0), util::ConfigError);
}

}  // namespace
}  // namespace wearscope::core
