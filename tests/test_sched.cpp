// The deterministic-interleaving gate (ctest label: sched).
//
// Exhaustively enumerates the bounded schedules of the ring close-races,
// the batched ring commit and the 2-shard live barrier scenario, runs seeded random walks over
// the full live+serve path, and proves the harness can actually catch
// bugs: a seeded lost-update mutation must be FOUND, and its printed
// schedule must replay deterministically from the decision string alone.
//
// Walk budget: WEARSCOPE_SCHED_WALKS overrides the per-model random-walk
// count (tools/check.sh --full raises it); WEARSCOPE_TEST_SEED overrides
// the base seed for reproduction.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "live/ring_buffer.h"
#include "sched/explorer.h"
#include "sched/models.h"
#include "sched/trace.h"
#include "test_support.h"

namespace wearscope::sched {
namespace {

/// Per-model random-walk budget (>= 250 so the suite total clears 1000).
std::size_t walk_budget() {
  const char* env = std::getenv("WEARSCOPE_SCHED_WALKS");
  if (env == nullptr || *env == '\0') return 250;
  return static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
}

/// Asserts a completed, all-passing exhaustive enumeration.
void expect_exhaustive_pass(const Model& model, int bound,
                            std::size_t max_schedules,
                            std::size_t* schedules_out = nullptr) {
  ExhaustOptions opt;
  opt.preemption_bound = bound;
  opt.max_schedules = max_schedules;
  const ExploreStats stats = exhaust(model, opt);
  EXPECT_FALSE(stats.budget_exhausted)
      << "enumeration hit the " << max_schedules << "-schedule budget";
  ASSERT_TRUE(stats.passed()) << stats.failure->format();
  EXPECT_GT(stats.schedules, 1u);
  if (schedules_out != nullptr) *schedules_out = stats.schedules;
}

TEST(SchedExplorer, RingTransferExhaustive) {
  expect_exhaustive_pass(ring_transfer_model(4, 2), /*bound=*/2, 60000);
}

TEST(SchedExplorer, RingTransferRendezvousCapacityOne) {
  // capacity 1 degenerates into a rendezvous buffer: every element takes
  // the park/wake path in some schedule.
  expect_exhaustive_pass(ring_transfer_model(3, 1), /*bound=*/2, 60000);
}

// Batched commits: push_n chunks larger than the ring park mid-chunk, and
// pop_n takes less than a chunk, yet order and element counts are exact.
TEST(SchedExplorer, RingBatchTransferExhaustive) {
  expect_exhaustive_pass(ring_batch_transfer_model(5, 2, 3), /*bound=*/2,
                         60000);
}

// close() landing mid-push_n: the accepted prefix arrives exactly once,
// the rest is counted rejected, and no later chunk gets in.
TEST(SchedExplorer, RingBatchCloseExhaustive) {
  expect_exhaustive_pass(ring_batch_close_model(), /*bound=*/2, 60000);
}

// Satellite: close() racing a (possibly parked) producer — no element
// lost or double-delivered, rejected accounts for the remainder.
TEST(SchedExplorer, RingCloseVsProducerExhaustive) {
  expect_exhaustive_pass(ring_close_producer_model(), /*bound=*/2, 60000);
}

// Satellite: close() racing a (possibly parked) consumer — the buffered
// element is drained exactly once and the consumer terminates.
TEST(SchedExplorer, RingCloseVsConsumerExhaustive) {
  expect_exhaustive_pass(ring_close_consumer_model(), /*bound=*/2, 60000);
}

// The partition feed's decode lanes: two producers with a capacity-1 ring
// each, popped round-robin, deliver the units in global order exactly
// once; closing every ring after the first unit (the error path) leaves
// no producer parked.
TEST(SchedExplorer, LaneHandoffExhaustive) {
  expect_exhaustive_pass(lane_handoff_model(false), /*bound=*/2, 60000);
}

TEST(SchedExplorer, LaneHandoffCloseExhaustive) {
  expect_exhaustive_pass(lane_handoff_model(true), /*bound=*/2, 60000);
}

// Satellite: a query racing eviction in a retain=1 store — checksums
// intact, publish_seq monotone, held references survive eviction.
TEST(SchedExplorer, StorePublishReadExhaustive) {
  expect_exhaustive_pass(store_publish_read_model(1, 3), /*bound=*/2,
                         120000);
}

// The tentpole acceptance scenario: exhaustive bounded enumeration of the
// 2-shard ring/barrier pipeline at preemption bound 2, with the
// independence reduction actually pruning commuting cross-shard branches.
TEST(SchedExplorer, LiveBarrierExhaustiveBound2) {
  ExhaustOptions opt;
  opt.preemption_bound = 2;
  opt.max_schedules = 150000;
  const ExploreStats stats = exhaust(live_barrier_model(), opt);
  EXPECT_FALSE(stats.budget_exhausted);
  ASSERT_TRUE(stats.passed()) << stats.failure->format();
  EXPECT_GT(stats.schedules, 10u);
  EXPECT_GT(stats.pruned_independent, 0u)
      << "cross-shard operations should commute";
}

// Without the independence reduction the same enumeration must still pass
// (the reduction only skips equivalent schedules, never distinct ones) —
// on a scenario small enough to afford the unreduced tree.
TEST(SchedExplorer, ReductionOnlySkipsEquivalentSchedules) {
  ExhaustOptions reduced;
  reduced.preemption_bound = 1;
  ExhaustOptions full = reduced;
  full.independence_reduction = false;
  const ExploreStats with_red = exhaust(ring_close_consumer_model(), reduced);
  const ExploreStats without = exhaust(ring_close_consumer_model(), full);
  ASSERT_TRUE(with_red.passed()) << with_red.failure->format();
  ASSERT_TRUE(without.passed()) << without.failure->format();
  EXPECT_LE(with_red.schedules, without.schedules);
}

TEST(SchedExplorer, LiveServeRandomWalks) {
  const std::uint64_t seed = testing::seed_or(0xD15C0);
  WEARSCOPE_SCOPED_SEED(seed);
  const ExploreStats stats =
      random_walks(live_serve_model(), seed, walk_budget());
  ASSERT_TRUE(stats.passed()) << stats.failure->format();
  EXPECT_EQ(stats.schedules, walk_budget());
}

TEST(SchedExplorer, LiveBarrierRandomWalks) {
  const std::uint64_t seed = testing::seed_or(0xBA221E);
  WEARSCOPE_SCOPED_SEED(seed);
  const ExploreStats stats =
      random_walks(live_barrier_model(), seed, walk_budget());
  ASSERT_TRUE(stats.passed()) << stats.failure->format();
}

TEST(SchedExplorer, StoreRandomWalks) {
  const std::uint64_t seed = testing::seed_or(0x570E);
  WEARSCOPE_SCOPED_SEED(seed);
  const ExploreStats stats =
      random_walks(store_publish_read_model(2, 4), seed, walk_budget());
  ASSERT_TRUE(stats.passed()) << stats.failure->format();
}

TEST(SchedExplorer, RingRandomWalks) {
  const std::uint64_t seed = testing::seed_or(0x21C6);
  WEARSCOPE_SCOPED_SEED(seed);
  const ExploreStats stats =
      random_walks(ring_transfer_model(6, 2), seed, walk_budget());
  ASSERT_TRUE(stats.passed()) << stats.failure->format();
}

TEST(SchedExplorer, RingBatchRandomWalks) {
  const std::uint64_t seed = testing::seed_or(0xBA7C4);
  WEARSCOPE_SCOPED_SEED(seed);
  const ExploreStats transfer =
      random_walks(ring_batch_transfer_model(9, 2, 4), seed, walk_budget());
  ASSERT_TRUE(transfer.passed()) << transfer.failure->format();
  const ExploreStats close =
      random_walks(ring_batch_close_model(), seed, walk_budget());
  ASSERT_TRUE(close.passed()) << close.failure->format();
}

TEST(SchedExplorer, LaneHandoffRandomWalks) {
  const std::uint64_t seed = testing::seed_or(0x1A2E5);
  WEARSCOPE_SCOPED_SEED(seed);
  for (const bool close_after_first : {false, true}) {
    const ExploreStats stats = random_walks(
        lane_handoff_model(close_after_first), seed, walk_budget());
    ASSERT_TRUE(stats.passed()) << stats.failure->format();
  }
}

// The mutation test: a deliberately seeded lost-update race MUST be
// found, and the printed schedule must replay deterministically.
TEST(SchedExplorer, MutationIsFoundAndReplays) {
  ExhaustOptions opt;
  opt.preemption_bound = 2;
  const ExploreStats stats = exhaust(racy_counter_model(true), opt);
  ASSERT_TRUE(stats.failure.has_value())
      << "the seeded lost-update bug escaped " << stats.schedules
      << " explored schedules";
  const ScheduleTrace& found = *stats.failure;
  EXPECT_FALSE(found.failures.empty());
  EXPECT_FALSE(found.decisions.empty());

  // Round-trip the printed decision string — the replay recipe is text.
  const std::vector<int> decisions =
      parse_decisions(found.decision_string());
  ASSERT_EQ(decisions, found.decisions);

  // Replaying the decision string alone reproduces the identical failing
  // run: same steps, same threads, same failure message.
  const ScheduleTrace again = replay(racy_counter_model(true), decisions);
  EXPECT_FALSE(again.passed());
  ASSERT_EQ(again.failures.size(), found.failures.size());
  EXPECT_EQ(again.failures, found.failures);
  ASSERT_EQ(again.steps.size(), found.steps.size());
  for (std::size_t i = 0; i < found.steps.size(); ++i) {
    EXPECT_EQ(again.steps[i].thread, found.steps[i].thread) << "step " << i;
    EXPECT_EQ(again.steps[i].op, found.steps[i].op) << "step " << i;
    EXPECT_EQ(again.steps[i].obj, found.steps[i].obj) << "step " << i;
  }
  EXPECT_EQ(again.decision_string(), found.decision_string());
}

// The fixed variant of the same scenario passes every bounded schedule —
// the finding above is the bug, not harness noise.
TEST(SchedExplorer, FixedCounterPassesExhaustively) {
  expect_exhaustive_pass(racy_counter_model(false), /*bound=*/2, 60000);
}

TEST(SchedExplorer, TraceFormatCarriesReplayRecipe) {
  ExhaustOptions opt;
  opt.preemption_bound = 1;
  const ExploreStats stats = exhaust(racy_counter_model(true), opt);
  ASSERT_TRUE(stats.failure.has_value());
  const std::string text = stats.failure->format();
  EXPECT_NE(text.find("FAIL"), std::string::npos);
  EXPECT_NE(text.find("decisions=" + stats.failure->decision_string()),
            std::string::npos);
  EXPECT_NE(text.find("lost update"), std::string::npos);
}

// A deadlock cannot be unwound: the scheduler prints the schedule with its
// replay recipe and ends the process.  Each thread waits on a ring the
// other fills only after its own wait, so both park and main's join can
// never return.  Threadsafe style: the child re-executes the binary rather
// than forking a process that already runs threads.
TEST(SchedDeathTest, DeadlockEndsTheProcessWithItsReplayRecipe) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Model crossed_waits = [](Scheduler&) {
    live::RingBuffer<std::size_t> to_a(1);
    live::RingBuffer<std::size_t> to_b(1);
    ManagedThread a("wait-a", [&] {
      std::size_t v = 0;
      if (to_a.pop(v)) (void)to_b.push(v);
    });
    ManagedThread b("wait-b", [&] {
      std::size_t v = 0;
      if (to_b.pop(v)) (void)to_a.push(v);
    });
    a.join();
    b.join();
  };
  EXPECT_EXIT(
      {
        FifoSource fifo;
        (void)run_once(crossed_waits, fifo);
      },
      ::testing::ExitedWithCode(kDeadlockExitCode),
      "DEADLOCK.*replay with: --replay \"[0-9.]+\"");
}

TEST(SchedTrace, DecisionStringRoundTrip) {
  ScheduleTrace trace;
  trace.decisions = {0, 2, 1, 0, 3};
  EXPECT_EQ(trace.decision_string(), "0.2.1.0.3");
  EXPECT_EQ(parse_decisions("0.2.1.0.3"), trace.decisions);
  EXPECT_TRUE(parse_decisions("").empty());
  EXPECT_THROW(parse_decisions("1..2"), util::Error);
  EXPECT_THROW(parse_decisions("1.x"), util::Error);
  EXPECT_THROW(parse_decisions("-1"), util::Error);
}

// The fixtures themselves: the walk fixture must carry a non-trivial
// chaos-injected quarantine, and the sequential references must differ
// between the mid cut and the full capture (the cut is real).
TEST(SchedModels, FixturesAreNonTrivial) {
  const LiveFixture& tiny = tiny_live_fixture();
  EXPECT_EQ(tiny.options.shards, 2u);
  EXPECT_EQ(tiny.feed.size(), 4u);
  EXPECT_EQ(tiny.final_expected.records, tiny.feed.size());

  const LiveFixture& walk = walk_live_fixture();
  EXPECT_TRUE(walk.quarantine.any());
  EXPECT_GT(walk.mid_cut, 0u);
  EXPECT_LT(walk.mid_cut, walk.feed.size());
  EXPECT_EQ(walk.mid_expected.records, walk.mid_cut);
  EXPECT_EQ(walk.final_expected.records, walk.feed.size());
  EXPECT_FALSE(
      snapshot_diff(walk.final_expected, walk.mid_expected).empty());
  EXPECT_TRUE(
      snapshot_diff(walk.final_expected, walk.final_expected).empty());
}

}  // namespace
}  // namespace wearscope::sched
