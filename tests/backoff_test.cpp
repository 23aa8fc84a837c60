// The runtime's one waiting policy (runtime/backoff.hpp): a producer that
// rings after every push never loses a wake-up of a consumer that waits
// only through idle_step, and a ring() from another thread releases a
// parked owner. A lost wake-up shows up as a hang.
#include "runtime/backoff.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "runtime/spsc_ring.hpp"

namespace {

using clue::runtime::Backoff;
using clue::runtime::Doorbell;
using clue::runtime::idle_step;
using clue::runtime::SpscRing;

TEST(DoorbellTest, RingAfterEveryPushLosesNoWakeup) {
  constexpr std::uint32_t kCount = 1'000'000;
  SpscRing<std::uint32_t> ring(64);
  Doorbell bell;

  std::thread producer([&] {
    for (std::uint32_t i = 0; i < kCount; ++i) {
      for (Backoff backoff; !ring.try_push(i);) backoff.pause();
      bell.ring();
      // Now and then go quiet long enough for the consumer to spend its
      // budget and park, so the hammer covers parked wake-ups as well as
      // the arm/ring race.
      if (i % 8192 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  });

  Backoff backoff;
  std::uint32_t received = 0;
  while (received < kCount) {
    std::uint32_t value = 0;
    if (ring.try_pop(value)) {
      ASSERT_EQ(value, received);
      ++received;
      backoff.reset();
    } else {
      idle_step(backoff, bell, [&] { return !ring.empty_approx(); });
    }
  }
  producer.join();
  EXPECT_EQ(received, kCount);
}

TEST(DoorbellTest, RingFromAnotherThreadReleasesParkedOwner) {
  Doorbell bell;
  std::atomic<bool> go{false};
  std::atomic<bool> released{false};
  std::thread owner([&] {
    Backoff backoff;
    while (!go.load(std::memory_order_acquire)) {
      idle_step(backoff, bell,
                [&] { return go.load(std::memory_order_acquire); });
    }
    released.store(true, std::memory_order_release);
  });
  // Long past the owner's spin budget: it is parked by now.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(released.load(std::memory_order_acquire));
  go.store(true, std::memory_order_release);
  bell.ring();
  owner.join();
  EXPECT_TRUE(released.load(std::memory_order_acquire));
}

}  // namespace
