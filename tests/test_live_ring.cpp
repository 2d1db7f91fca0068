// Concurrency tests for live::RingBuffer: ordered transfer under the
// pathological capacity-1 configuration, shutdown while either side is
// blocked, and backpressure counter accounting.  These are the tests the
// TSan gate (WEARSCOPE_SANITIZE=thread) is expected to exercise.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "chaos/fault_plan.h"
#include "live/ring_buffer.h"
#include "test_support.h"
#include "util/rng.h"

namespace {

using wearscope::live::RingBuffer;
using wearscope::live::RingStats;

// Spin until `pred` holds or ~2s elapse; returns whether it held.  Used to
// wait for a peer thread to reach a blocking call without sleeping blind.
template <typename Pred>
bool eventually(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(LiveRing, RejectsZeroCapacity) {
  EXPECT_THROW(RingBuffer<int>(0), std::exception);
}

TEST(LiveRing, SingleThreadFifo) {
  RingBuffer<int> ring(4);
  EXPECT_EQ(ring.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.push(i));
  EXPECT_EQ(ring.size(), 4u);
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_EQ(ring.size(), 0u);
}

TEST(LiveRing, WrapAroundKeepsOrder) {
  RingBuffer<int> ring(3);
  int v = -1;
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(ring.push(2 * round));
    ASSERT_TRUE(ring.push(2 * round + 1));
    ASSERT_TRUE(ring.pop(v));
    EXPECT_EQ(v, 2 * round);
    ASSERT_TRUE(ring.pop(v));
    EXPECT_EQ(v, 2 * round + 1);
  }
}

TEST(LiveRing, CapacityOneStressTransfersInOrder) {
  // Capacity 1 forces a blocking rendezvous on nearly every element, which
  // is the harshest possible workout for the park/wake handshake.
  constexpr std::uint64_t kCount = 200'000;
  RingBuffer<std::uint64_t> ring(1);
  std::atomic<bool> ok{true};
  std::thread consumer([&] {
    std::uint64_t expected = 0;
    std::uint64_t v = 0;
    while (ring.pop(v)) {
      if (v != expected++) {
        ok.store(false);
        return;
      }
    }
    if (expected != kCount) ok.store(false);
  });
  for (std::uint64_t i = 0; i < kCount; ++i) ASSERT_TRUE(ring.push(i));
  ring.close();
  consumer.join();
  EXPECT_TRUE(ok.load());
  const RingStats s = ring.stats();
  EXPECT_EQ(s.pushed, kCount);
  EXPECT_EQ(s.popped, kCount);
  EXPECT_EQ(s.rejected, 0u);
}

TEST(LiveRing, CloseWakesBlockedConsumer) {
  RingBuffer<int> ring(8);
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    int v = 0;
    const bool got = ring.pop(v);  // Blocks: ring is empty.
    EXPECT_FALSE(got);
    returned.store(true);
  });
  // Give the consumer time to actually park, then close.
  ASSERT_TRUE(eventually([&] { return ring.stats().consumer_waits > 0; }));
  ring.close();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

TEST(LiveRing, CloseWakesBlockedProducer) {
  RingBuffer<int> ring(1);
  ASSERT_TRUE(ring.push(42));  // Ring is now full.
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    const bool accepted = ring.push(43);  // Blocks: ring is full.
    EXPECT_FALSE(accepted);
    returned.store(true);
  });
  ASSERT_TRUE(eventually([&] { return ring.stats().producer_waits > 0; }));
  ring.close();
  producer.join();
  EXPECT_TRUE(returned.load());
  // The element published before close() must still drain.
  int v = 0;
  EXPECT_TRUE(ring.pop(v));
  EXPECT_EQ(v, 42);
  EXPECT_FALSE(ring.pop(v));
  EXPECT_EQ(ring.stats().rejected, 1u);
}

TEST(LiveRing, PushAfterCloseIsRejectedAndCounted) {
  RingBuffer<int> ring(4);
  EXPECT_TRUE(ring.push(1));
  ring.close();
  EXPECT_FALSE(ring.push(2));
  EXPECT_FALSE(ring.push(3));
  const RingStats s = ring.stats();
  EXPECT_EQ(s.pushed, 1u);
  EXPECT_EQ(s.rejected, 2u);
  int v = 0;
  EXPECT_TRUE(ring.pop(v));  // Pre-close element survives.
  EXPECT_EQ(v, 1);
  EXPECT_FALSE(ring.pop(v));
}

TEST(LiveRing, CloseIsIdempotent) {
  RingBuffer<int> ring(2);
  ring.close();
  ring.close();
  EXPECT_TRUE(ring.closed());
  EXPECT_FALSE(ring.push(1));
}

TEST(LiveRing, BackpressureCountersMatchBlockingEpisodes) {
  // With a fast producer and a deliberately slow consumer on a small ring,
  // the producer must record wait episodes; totals must balance.
  constexpr std::uint64_t kCount = 5'000;
  RingBuffer<std::uint64_t> ring(2);
  std::thread consumer([&] {
    std::uint64_t v = 0;
    std::uint64_t n = 0;
    while (ring.pop(v)) {
      if (++n % 512 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  });
  for (std::uint64_t i = 0; i < kCount; ++i) ASSERT_TRUE(ring.push(i));
  ring.close();
  consumer.join();
  const RingStats s = ring.stats();
  EXPECT_EQ(s.pushed, kCount);
  EXPECT_EQ(s.popped, kCount);
  EXPECT_GT(s.producer_waits, 0u);
  EXPECT_EQ(s.rejected, 0u);
}

TEST(LiveRing, StatsAggregationSums) {
  RingStats a;
  a.pushed = 3;
  a.producer_waits = 1;
  RingStats b;
  b.pushed = 4;
  b.popped = 2;
  b.rejected = 5;
  a += b;
  EXPECT_EQ(a.pushed, 7u);
  EXPECT_EQ(a.popped, 2u);
  EXPECT_EQ(a.producer_waits, 1u);
  EXPECT_EQ(a.rejected, 5u);
}

TEST(LiveRing, ChaosStallScheduleStressExactTotals) {
  // Seeded slow-consumer stalls against a burst-happy producer on a tiny
  // ring: the schedule is a pure function of (seed, i), so both threads
  // derive their misbehavior independently, with no shared state beyond
  // the ring itself.  Every record must still arrive in order, no wakeup
  // may be lost (the test would hang), and the totals must balance to the
  // last element.  This is the chaos case the TSan gate leans on.
  constexpr std::uint64_t kCount = 40'000;
  const std::uint64_t seed = wearscope::testing::seed_or(0xC4A05);
  WEARSCOPE_SCOPED_SEED(seed);
  const wearscope::chaos::StallSchedule sched =
      wearscope::chaos::FaultPlan(
          seed, wearscope::chaos::FaultProfile::named("io"))
          .stall_schedule();
  RingBuffer<std::uint64_t> ring(4);
  std::atomic<bool> ok{true};
  std::thread consumer([&] {
    std::uint64_t expected = 0;
    std::uint64_t v = 0;
    for (std::uint64_t i = 0; ring.pop(v); ++i) {
      const std::uint32_t stall = sched.stall_us(i);
      if (stall > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(stall));
      }
      if (v != expected++) {
        ok.store(false);
        return;
      }
    }
    if (expected != kCount) ok.store(false);
  });
  std::uint64_t next = 0;
  for (std::uint64_t i = 0; next < kCount; ++i) {
    // A burst shoves several records back-to-back before the next
    // scheduling point — the producer-side pressure spike.
    const std::uint64_t burst = 1 + sched.burst_len(i);
    for (std::uint64_t b = 0; b < burst && next < kCount; ++b) {
      ASSERT_TRUE(ring.push(next++));
    }
  }
  ring.close();
  consumer.join();
  EXPECT_TRUE(ok.load());
  const RingStats s = ring.stats();
  EXPECT_EQ(s.pushed, kCount);
  EXPECT_EQ(s.popped, kCount);
  EXPECT_EQ(s.rejected, 0u);
  // A capacity-4 ring against scheduled stalls must have parked the
  // producer at least once; otherwise the schedule exercised nothing.
  EXPECT_GT(s.producer_waits, 0u);
}

TEST(LiveRing, PushNAfterCloseReturnsZeroAndCountsRejected) {
  RingBuffer<int> ring(4);
  ring.close();
  int values[5] = {1, 2, 3, 4, 5};
  EXPECT_EQ(ring.push_n(values, 5), 0u);
  const RingStats s = ring.stats();
  EXPECT_EQ(s.pushed, 0u);
  EXPECT_EQ(s.rejected, 5u);
}

TEST(LiveRing, PopNDrainsAfterCloseThenReturnsZero) {
  RingBuffer<int> ring(4);
  int values[3] = {7, 8, 9};
  ASSERT_EQ(ring.push_n(values, 3), 3u);
  ring.close();
  int out[8] = {};
  EXPECT_EQ(ring.pop_n(out, 2), 2u);  // at most `max`
  EXPECT_EQ(out[0], 7);
  EXPECT_EQ(out[1], 8);
  EXPECT_EQ(ring.pop_n(out, 8), 1u);  // the rest, not `max`
  EXPECT_EQ(out[0], 9);
  EXPECT_EQ(ring.pop_n(out, 8), 0u);
  EXPECT_EQ(ring.stats().popped, 3u);
}

TEST(LiveRing, PushNChunksWrapAroundTheRing) {
  // A 3-slot ring, offset by one, so chunks straddle the end of the slots.
  RingBuffer<int> ring(3);
  int v = -1;
  ASSERT_TRUE(ring.push(0));
  ASSERT_TRUE(ring.pop(v));
  int values[3] = {10, 11, 12};
  ASSERT_EQ(ring.push_n(values, 3), 3u);
  EXPECT_EQ(ring.size(), 3u);
  int out[3] = {};
  ASSERT_EQ(ring.pop_n(out, 3), 3u);
  EXPECT_EQ(out[0], 10);
  EXPECT_EQ(out[1], 11);
  EXPECT_EQ(out[2], 12);
}

TEST(LiveRing, MixedBatchSizesStressKeepsFifo) {
  // push_n sizes 1..3x capacity against pop_n limits 1..2x capacity: every
  // chunk larger than the ring commits in pieces across parks, and the
  // element totals still balance exactly.
  constexpr std::uint64_t kCount = 100'000;
  constexpr std::size_t kCapacity = 8;
  const std::uint64_t seed = wearscope::testing::seed_or(0xBA7C);
  WEARSCOPE_SCOPED_SEED(seed);
  RingBuffer<std::uint64_t> ring(kCapacity);
  std::atomic<bool> ok{true};
  std::thread consumer([&] {
    wearscope::util::Pcg32 rng(seed, 2);
    std::vector<std::uint64_t> out(2 * kCapacity);
    std::uint64_t expected = 0;
    for (;;) {
      const auto max = static_cast<std::size_t>(
          rng.uniform_int(1, static_cast<std::int64_t>(out.size())));
      const std::size_t n = ring.pop_n(out.data(), max);
      if (n == 0) break;
      if (n > max) ok.store(false);
      for (std::size_t i = 0; i < n; ++i) {
        if (out[i] != expected++) ok.store(false);
      }
    }
    if (expected != kCount) ok.store(false);
  });
  wearscope::util::Pcg32 rng(seed, 1);
  std::vector<std::uint64_t> chunk;
  for (std::uint64_t next = 0; next < kCount;) {
    const auto size = static_cast<std::uint64_t>(
        rng.uniform_int(1, 3 * static_cast<std::int64_t>(kCapacity)));
    chunk.clear();
    for (std::uint64_t i = 0; i < size && next < kCount; ++i) {
      chunk.push_back(next++);
    }
    ASSERT_EQ(ring.push_n(chunk.data(), chunk.size()), chunk.size());
  }
  ring.close();
  consumer.join();
  EXPECT_TRUE(ok.load());
  const RingStats s = ring.stats();
  EXPECT_EQ(s.pushed, kCount);
  EXPECT_EQ(s.popped, kCount);
  EXPECT_EQ(s.rejected, 0u);
}

TEST(LiveRing, MoveOnlyPayload) {
  // Events are moved through the ring; verify a move-only type compiles
  // and transfers ownership intact.
  RingBuffer<std::unique_ptr<int>> ring(2);
  EXPECT_TRUE(ring.push(std::make_unique<int>(7)));
  std::unique_ptr<int> out;
  EXPECT_TRUE(ring.pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 7);
}

}  // namespace
