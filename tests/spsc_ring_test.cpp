// SpscRing in isolation: ordering, full/empty boundaries, wraparound,
// and a two-thread torture run with a seeded Pcg32 workload.
#include "runtime/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "netbase/rng.hpp"

namespace {

using clue::netbase::Pcg32;
using clue::runtime::SpscRing;

TEST(SpscRingTest, PushPopPreservesFifoOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.try_push(i));
  int out = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));
}

// A non-power-of-two capacity is held exactly, not rounded up: the
// dispatch policy counts a home FIFO of fifo_depth jobs as full.
TEST(SpscRingTest, HoldsExactlyTheRequestedCapacity) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 5u);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(5));
  int more[3] = {5, 6, 7};
  EXPECT_EQ(ring.try_push_n(more, 3), 0u);
  EXPECT_EQ(ring.size_approx(), 5u);

  // Across wraparound too: an overflowing batched push takes only what
  // fits, and order is kept.
  int out = -1;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(ring.try_push_n(more, 3), 2u);
  EXPECT_FALSE(ring.try_push(99));
  for (const int expected : {2, 3, 4, 5, 6}) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, expected);
  }
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRingTest, FullRingRejectsPushUntilPopped) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));
  EXPECT_EQ(ring.size_approx(), 4u);
  int out = -1;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(ring.try_push(4));
  EXPECT_FALSE(ring.try_push(5));
}

TEST(SpscRingTest, EmptyRingRejectsPop) {
  SpscRing<int> ring(4);
  int out = -1;
  EXPECT_FALSE(ring.try_pop(out));
  EXPECT_TRUE(ring.try_push(7));
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(ring.try_pop(out));
  EXPECT_EQ(ring.size_approx(), 0u);
}

TEST(SpscRingTest, WrapAroundKeepsOrderAcrossManyCycles) {
  SpscRing<std::uint32_t> ring(4);
  std::uint32_t expected = 0;
  std::uint32_t produced = 0;
  // Alternate bursts so the cursors wrap the 4-slot buffer often.
  for (int round = 0; round < 1000; ++round) {
    const unsigned burst = 1 + (round % 4);
    for (unsigned i = 0; i < burst; ++i) {
      if (ring.try_push(produced)) ++produced;
    }
    std::uint32_t out = 0;
    while (ring.try_pop(out)) {
      ASSERT_EQ(out, expected);
      ++expected;
    }
  }
  EXPECT_EQ(expected, produced);
  EXPECT_GT(produced, 1000u);
}

TEST(SpscRingTest, TwoThreadTortureSeededWorkload) {
  constexpr std::uint64_t kSeed = 0xC10EULL;
  constexpr std::size_t kCount = 200'000;
  SpscRing<std::uint32_t> ring(64);

  std::thread producer([&ring] {
    Pcg32 values(kSeed);
    Pcg32 jitter(kSeed + 1);
    for (std::size_t i = 0; i < kCount; ++i) {
      const std::uint32_t value = values.next();
      while (!ring.try_push(value)) std::this_thread::yield();
      // Irregular pacing so both full and empty boundaries get hit.
      if (jitter.chance(0.01)) std::this_thread::yield();
    }
  });

  Pcg32 expected(kSeed);
  Pcg32 jitter(kSeed + 2);
  for (std::size_t i = 0; i < kCount; ++i) {
    std::uint32_t out = 0;
    while (!ring.try_pop(out)) std::this_thread::yield();
    ASSERT_EQ(out, expected.next()) << "at element " << i;
    if (jitter.chance(0.01)) std::this_thread::yield();
  }
  producer.join();
  std::uint32_t leftover = 0;
  EXPECT_FALSE(ring.try_pop(leftover));
}

TEST(SpscRingTest, BatchedPushPopMatchesScalarSemantics) {
  SpscRing<int> ring(8);
  int values[] = {0, 1, 2, 3, 4};
  EXPECT_EQ(ring.try_push_n(values, 5), 5u);
  EXPECT_EQ(ring.size_approx(), 5u);
  int out[8] = {};
  EXPECT_EQ(ring.try_pop_n(out, 8), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(ring.try_pop_n(out, 8), 0u);
  EXPECT_EQ(ring.try_push_n(values, 0), 0u);
  EXPECT_EQ(ring.try_pop_n(out, 0), 0u);
}

TEST(SpscRingTest, BatchedPushTakesLongestFittingPrefix) {
  SpscRing<int> ring(4);
  int a[] = {10, 11, 12};
  ASSERT_EQ(ring.try_push_n(a, 3), 3u);
  int b[] = {13, 14, 15};
  // Only one slot free: the partial push must accept b[0] alone.
  EXPECT_EQ(ring.try_push_n(b, 3), 1u);
  EXPECT_EQ(ring.try_push_n(b + 1, 2), 0u);
  int out[4] = {};
  ASSERT_EQ(ring.try_pop_n(out, 4), 4u);
  EXPECT_EQ(out[0], 10);
  EXPECT_EQ(out[1], 11);
  EXPECT_EQ(out[2], 12);
  EXPECT_EQ(out[3], 13);
}

TEST(SpscRingTest, BatchedOpsWrapAroundTheBuffer) {
  SpscRing<std::uint32_t> ring(8);
  std::uint32_t next = 0;
  std::uint32_t expect = 0;
  // Push 5 / pop 3 each round: cursors drift and cross the 8-slot
  // boundary at varying offsets, so batches straddle the wrap point.
  for (int round = 0; round < 200; ++round) {
    std::uint32_t in[5];
    for (auto& v : in) v = next++;
    std::size_t pushed = ring.try_push_n(in, 5);
    next -= static_cast<std::uint32_t>(5 - pushed);  // rewind rejects
    std::uint32_t out[3];
    const std::size_t popped = ring.try_pop_n(out, 3);
    for (std::size_t i = 0; i < popped; ++i) ASSERT_EQ(out[i], expect++);
  }
  std::uint32_t out[8];
  const std::size_t tail = ring.try_pop_n(out, 8);
  for (std::size_t i = 0; i < tail; ++i) ASSERT_EQ(out[i], expect++);
  EXPECT_EQ(expect, next);
  EXPECT_GT(next, 500u);
}

TEST(SpscRingTest, MixedScalarAndBatchedCallsInterleaveCleanly) {
  SpscRing<int> ring(8);
  int batch[] = {1, 2, 3};
  ASSERT_TRUE(ring.try_push(0));
  ASSERT_EQ(ring.try_push_n(batch, 3), 3u);
  ASSERT_TRUE(ring.try_push(4));
  int out = -1;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 0);
  int rest[8] = {};
  ASSERT_EQ(ring.try_pop_n(rest, 8), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(rest[i], i + 1);
}

TEST(SpscRingTest, TwoThreadBatchedHammerSeededWorkload) {
  constexpr std::uint64_t kSeed = 0xBA7C4ULL;
  constexpr std::size_t kCount = 200'000;
  SpscRing<std::uint32_t> ring(64);

  std::thread producer([&ring] {
    Pcg32 values(kSeed);
    Pcg32 sizes(kSeed + 1);
    std::uint32_t staged[17];
    std::size_t staged_n = 0;
    std::size_t sent = 0;
    while (sent < kCount) {
      if (staged_n == 0) {
        staged_n = 1 + sizes.next() % 16;
        if (staged_n > kCount - sent) staged_n = kCount - sent;
        for (std::size_t i = 0; i < staged_n; ++i) staged[i] = values.next();
      }
      const std::size_t pushed = ring.try_push_n(staged, staged_n);
      if (pushed == 0) {
        std::this_thread::yield();
        continue;
      }
      sent += pushed;
      // Keep the unsent suffix staged so partial pushes stay ordered.
      for (std::size_t i = pushed; i < staged_n; ++i) {
        staged[i - pushed] = staged[i];
      }
      staged_n -= pushed;
    }
  });

  Pcg32 expected(kSeed);
  Pcg32 sizes(kSeed + 2);
  std::size_t received = 0;
  while (received < kCount) {
    std::uint32_t out[16];
    const std::size_t want = 1 + sizes.next() % 16;
    const std::size_t got = ring.try_pop_n(out, want);
    if (got == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < got; ++i) {
      ASSERT_EQ(out[i], expected.next()) << "at element " << received + i;
    }
    received += got;
  }
  producer.join();
  std::uint32_t leftover = 0;
  EXPECT_FALSE(ring.try_pop(leftover));
}

}  // namespace
