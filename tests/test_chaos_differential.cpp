// The headline chaos harness: for seeded fault plans, the batch pipeline
// and the live engine must produce bitwise-identical results on the
// records that survive quarantine, and the quarantine counters must equal
// the injected fault counts exactly — at every shard count in {1,2,4,8}.
// Runs in its own executable (wearscope_chaos_tests) under the `chaos`
// ctest label so sanitizer sweeps can target it directly.
#include "chaos/diff_runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chaos/fault_plan.h"
#include "legacy_fixtures.h"
#include "simnet/simulator.h"
#include "trace/log_reader.h"
#include "trace/sanitize.h"
#include "util/error.h"

namespace wearscope {
namespace {

simnet::SimConfig chaos_config() {
  simnet::SimConfig cfg;
  cfg.seed = 4242;
  cfg.wearable_users = 150;
  cfg.control_users = 450;
  cfg.through_device_users = 40;
  cfg.detailed_days = 14;
  cfg.cities = 5;
  cfg.sectors_per_city = 10;
  cfg.long_tail_apps = 40;
  return cfg;
}

const simnet::SimResult& capture() {
  static const simnet::SimResult sim = simnet::Simulator(chaos_config()).run();
  return sim;
}

core::AnalysisOptions analysis_for(const simnet::SimResult& sim) {
  core::AnalysisOptions opt;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.detailed_start_day;
  opt.long_tail_apps = sim.config.long_tail_apps;
  return opt;
}

// ---------------------------------------------------------------------------
// The differential contract, profile x seed, shards {1, 2, 4, 8}.
// ---------------------------------------------------------------------------

// The profile is a std::string, not a const char*: gtest prints a pointer
// parameter as its address, which would put a per-process random value into
// the discovered ctest name.
using ProfileSeed = std::pair<std::string, std::uint64_t>;

class ChaosDifferential : public ::testing::TestWithParam<ProfileSeed> {};

TEST_P(ChaosDifferential, BatchAndLiveAgreeOnSurvivors) {
  const auto& [profile, seed] = GetParam();
  const simnet::SimResult& sim = capture();

  chaos::DiffOptions opt;
  opt.seed = seed;
  opt.profile = chaos::FaultProfile::named(profile);
  opt.shard_counts = {1, 2, 4, 8};
  opt.analysis = analysis_for(sim);

  const chaos::DiffReport rep = chaos::run_differential(sim.store, opt);

  std::ostringstream detail;
  for (const std::string& mm : rep.mismatches) detail << "  " << mm << "\n";
  EXPECT_TRUE(rep.passed) << rep.summary() << "\n" << detail.str();

  // The plan must have actually exercised the machinery: every record-level
  // profile drops and repairs something, every runtime profile retries.
  if (opt.profile.any_record_faults()) {
    EXPECT_GT(rep.observed.total_dropped(), 0u);
    EXPECT_GT(rep.observed.reordered, 0u);
  }
  if (opt.profile.any_runtime_faults()) {
    EXPECT_GT(rep.manifest.expected.transient_retries, 0u);
  }
  EXPECT_EQ(rep.surviving_proxy + rep.surviving_mme,
            sim.store.proxy.size() + sim.store.mme.size());
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, ChaosDifferential,
    ::testing::Values(ProfileSeed{"records", 101},
                      ProfileSeed{"records-heavy", 202},
                      ProfileSeed{"runtime", 303},
                      ProfileSeed{"all", 404}),
    [](const ::testing::TestParamInfo<ProfileSeed>& info) {
      std::string name = info.param.first;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_seed" + std::to_string(info.param.second);
    });

// ---------------------------------------------------------------------------
// Plan determinism and profile plumbing.
// ---------------------------------------------------------------------------

TEST(FaultPlan, RecordInjectionIsReproducible) {
  const simnet::SimResult& sim = capture();
  trace::TraceStore canon = sim.store;
  trace::sanitize_store(canon);

  const chaos::FaultPlan plan(77, chaos::FaultProfile::named("records"));
  trace::TraceStore a = canon;
  trace::TraceStore b = canon;
  const chaos::FaultManifest ma = plan.inject_records(a);
  const chaos::FaultManifest mb = plan.inject_records(b);
  EXPECT_TRUE(ma.expected == mb.expected);
  EXPECT_TRUE(a.proxy == b.proxy);
  EXPECT_TRUE(a.mme == b.mme);

  // A large capture absorbs the full requested fault budget.
  const chaos::FaultProfile p = chaos::FaultProfile::named("records");
  EXPECT_EQ(ma.expected.duplicates, p.duplicates);
  EXPECT_EQ(ma.expected.regressions, p.regressions);
  EXPECT_EQ(ma.expected.unknown_tac, p.unknown_tacs);
  EXPECT_EQ(ma.expected.bad_host, p.bad_hosts);
  EXPECT_EQ(ma.expected.reordered, p.reorder_swaps);
}

TEST(FaultPlan, DifferentSeedsInjectDifferentFaults) {
  const simnet::SimResult& sim = capture();
  trace::TraceStore canon = sim.store;
  trace::sanitize_store(canon);

  const chaos::FaultProfile profile =
      chaos::FaultProfile::named("records-heavy");
  trace::TraceStore a = canon;
  trace::TraceStore b = canon;
  chaos::FaultPlan(1, profile).inject_records(a);
  chaos::FaultPlan(2, profile).inject_records(b);
  EXPECT_FALSE(a.proxy == b.proxy);
}

TEST(FaultPlan, RuntimeScheduleIsDeterministicAndBounded) {
  const chaos::FaultPlan plan(9, chaos::FaultProfile::named("runtime"));
  const live::RetryPolicy retry;
  const std::uint64_t feed = 10'000;
  const chaos::RuntimeFaults a = plan.runtime_faults(feed, retry);
  const chaos::RuntimeFaults b = plan.runtime_faults(feed, retry);

  ASSERT_EQ(a.permanent_seqs, b.permanent_seqs);
  EXPECT_TRUE(a.expected == b.expected);
  EXPECT_EQ(a.expected.dropped_after_retry, a.permanent_seqs.size());
  for (std::uint64_t s = 0; s < feed; ++s) {
    ASSERT_EQ(a.schedule(s), b.schedule(s)) << "seq " << s;
    ASSERT_LE(a.schedule(s), retry.max_attempts);
  }
  for (const std::uint64_t s : a.permanent_seqs) {
    EXPECT_LT(s, feed);
    EXPECT_EQ(a.schedule(s), retry.max_attempts);
  }
}

TEST(FaultPlan, StallScheduleIsDeterministicAndBounded) {
  const chaos::StallSchedule s =
      chaos::FaultPlan(5, chaos::FaultProfile::named("io")).stall_schedule();
  const chaos::StallSchedule t =
      chaos::FaultPlan(5, chaos::FaultProfile::named("io")).stall_schedule();
  std::uint64_t stalls = 0;
  std::uint64_t bursts = 0;
  for (std::uint64_t i = 0; i < 20'000; ++i) {
    ASSERT_EQ(s.stall_us(i), t.stall_us(i));
    ASSERT_EQ(s.burst_len(i), t.burst_len(i));
    ASSERT_LE(s.stall_us(i), s.max_stall_us);
    ASSERT_LE(s.burst_len(i), s.max_burst);
    if (s.stall_us(i) > 0) ++stalls;
    if (s.burst_len(i) > 0) ++bursts;
  }
  EXPECT_GT(stalls, 0u);
  EXPECT_GT(bursts, 0u);
}

TEST(FaultProfile, NamedPresetsRoundTripAndRejectUnknown) {
  for (const std::string& name : chaos::FaultProfile::names()) {
    const chaos::FaultProfile p = chaos::FaultProfile::named(name);
    EXPECT_EQ(p.name, name);
  }
  EXPECT_THROW(chaos::FaultProfile::named("no-such-profile"),
               util::ConfigError);
}

TEST(DiffQuarantine, EveryCounterIsCompared) {
  // One pair per counter, differing in that counter alone: each must be
  // reported, by name.
  for (const trace::QuarantineCounter& c : trace::kQuarantineCounters) {
    trace::QuarantineStats a;
    trace::QuarantineStats b;
    b.*c.member = 1;
    std::vector<std::string> mismatches;
    chaos::diff_quarantine("q", a, b, mismatches);
    ASSERT_EQ(mismatches.size(), 1u) << c.key;
    EXPECT_EQ(mismatches.front(), std::string("q.") + c.key + ": 0 != 1");
  }
  std::vector<std::string> none;
  chaos::diff_quarantine("q", {}, {}, none);
  EXPECT_TRUE(none.empty());
}

// ---------------------------------------------------------------------------
// Byte level: every exact corpus entry honors its own accounting promise.
// ---------------------------------------------------------------------------

TEST(FaultPlan, ByteCorpusAccountingIsExact) {
  // The v1 proxy fixture: a clean v1 log of fixed_store()'s rows.
  const trace::TraceStore fixed = testing::fixed_store();
  const trace::Rows<trace::ProxyRecord>& sample = fixed.proxy;
  const chaos::BinaryImage image = chaos::image_of<trace::ProxyRecord>(
      testing::slurp(testing::legacy_dir() / "v1" / "proxy.bin"));
  ASSERT_EQ(image.record_offsets.size(), sample.size());

  const chaos::FaultPlan plan(31, chaos::FaultProfile::named("io"));
  const std::vector<chaos::ByteFault> corpus = plan.byte_corpus(image, true);
  ASSERT_FALSE(corpus.empty());

  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const chaos::ByteFault& fault = corpus[i];
    trace::QuarantineStats q;
    // Decoding into a copy of the fixture's pools maps every intact string
    // back to its id there.
    trace::ProxyPools pools = fixed;
    const trace::Rows<trace::ProxyRecord> got =
        trace::read_binary_log_lenient<trace::ProxyRecord>(
            std::as_bytes(std::span(fault.bytes.data(), fault.bytes.size())),
            q, pools);
    if (!fault.exact) {
      // Bit flips promise survival, not specific counts.
      EXPECT_LE(got.size(), sample.size()) << "corpus entry " << i;
      continue;
    }
    EXPECT_EQ(got.size(), fault.expected_survivors) << "corpus entry " << i;
    EXPECT_TRUE(q == fault.expected) << "corpus entry " << i;
    // Survivors are the untouched prefix, bit for bit.
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(got[k], sample[k]) << "corpus entry " << i << " record " << k;
    }
  }
}

TEST(FaultPlan, ImageOfAcceptsOnlyACleanV1Log) {
  const std::filesystem::path legacy = testing::legacy_dir();
  const std::string v1 = testing::slurp(legacy / "v1" / "mme.bin");
  const chaos::BinaryImage image = chaos::image_of<trace::MmeRecord>(v1);
  ASSERT_EQ(image.record_offsets.size(), 30u);
  EXPECT_EQ(image.record_offsets.front(), 8u);
  EXPECT_EQ(image.bytes, v1);
  // Another record type, another version, a record cut short.
  EXPECT_THROW((void)chaos::image_of<trace::ProxyRecord>(v1),
               util::ParseError);
  EXPECT_THROW((void)chaos::image_of<trace::MmeRecord>(
                   testing::slurp(legacy / "v2" / "mme.bin")),
               util::ParseError);
  EXPECT_THROW((void)chaos::image_of<trace::MmeRecord>(
                   v1.substr(0, v1.size() - 1)),
               util::ParseError);
}

}  // namespace
}  // namespace wearscope
