// DRed sync and migration without an ack round trip: apply() returns
// once its erase/fix sweep is pushed, a diverted job stamped past its
// worker's applied sync goes home instead of reading a stale DRed, a fill
// read before a sync its peer has applied is dropped, each sweep skips
// the chip that stores the shape, stop() applies whatever sync is still
// queued, and a migration returns while the donor still holds jobs
// routed before it, which come home by their routing stamp.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "netbase/rng.hpp"
#include "runtime/lookup_runtime.hpp"
#include "system/clue_system.hpp"
#include "update/rebalancer.hpp"
#include "workload/traffic_gen.hpp"
#include "workload/update_gen.hpp"

#include "test_support.hpp"

namespace clue::runtime {

/// The runtime's test hook: holds a worker's control drain, its job
/// serving or its fill drain, and reads its control counters.
struct LookupRuntimeTestAccess {
  static constexpr std::uint8_t kControl = LookupRuntime::kStallControl;
  static constexpr std::uint8_t kJobs = LookupRuntime::kStallJobs;
  static constexpr std::uint8_t kFills = LookupRuntime::kStallFills;

  static void stall(LookupRuntime& runtime, std::size_t w,
                    std::uint8_t what) {
    runtime.workers_[w]->stalled.fetch_or(what, std::memory_order_acq_rel);
  }
  static void release(LookupRuntime& runtime, std::size_t w,
                      std::uint8_t what) {
    auto& worker = *runtime.workers_[w];
    worker.stalled.fetch_and(static_cast<std::uint8_t>(~what),
                             std::memory_order_acq_rel);
    worker.bell.ring();
  }
  /// Jobs queued in worker `w`'s job ring.
  static std::size_t queued_jobs(const LookupRuntime& runtime, std::size_t w) {
    return runtime.workers_[w]->jobs->size_approx();
  }
  /// Control messages pushed to worker `w` and not yet applied.
  static std::uint64_t control_backlog(const LookupRuntime& runtime,
                                       std::size_t w) {
    const auto& worker = *runtime.workers_[w];
    return worker.control_pushed.value.load(std::memory_order_acquire) -
           worker.control_applied.load(std::memory_order_acquire);
  }
};

}  // namespace clue::runtime

namespace {

using clue::netbase::Ipv4Address;
using clue::netbase::NextHop;
using clue::netbase::Prefix;
using clue::netbase::Route;
using clue::runtime::LookupRuntime;
using clue::runtime::LookupRuntimeTestAccess;
using clue::runtime::RuntimeConfig;
using clue::test_support::make_fib;
using Hook = LookupRuntimeTestAccess;

/// Polls `done` for up to ten seconds; returns whether it came true.
template <typename Done>
bool eventually(Done&& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

/// Sends `copies` lookups of `address` while worker `home` serves no
/// jobs: its ring fills, and the rest divert to the other worker. Once
/// `diverted_answered()` holds, `home` is released and the batch
/// completes. Returns the answers.
template <typename Answered>
std::vector<NextHop> divert_batch(LookupRuntime& runtime, std::size_t home,
                                  Ipv4Address address, std::size_t copies,
                                  Answered&& diverted_answered) {
  Hook::stall(runtime, home, Hook::kJobs);
  const std::vector<Ipv4Address> batch(copies, address);
  auto answers = std::async(std::launch::async,
                            [&] { return runtime.lookup_batch(batch); });
  const bool answered = eventually(diverted_answered);
  Hook::release(runtime, home, Hook::kJobs);
  auto hops = answers.get();
  EXPECT_TRUE(answered) << "diverted lookups were never answered";
  return hops;
}

// A worker whose control ring still holds a withdraw's erase must not
// answer a lookup diverted to it after apply() returned from the erased
// DRed entry: the job comes back as a miss-return, and the home chip
// answers with the post-withdraw hop.
TEST(LookupRuntimeTest, DivertedLookupNeverOutrunsAQueuedDredSync) {
  const auto fib = make_fib(4'000, 2601);
  RuntimeConfig config;
  config.worker_count = 2;
  config.fifo_depth = 8;
  config.rebalance = false;
  LookupRuntime runtime(fib, config);
  constexpr std::size_t kHome = 0;
  constexpr std::size_t kPeer = 1;
  // Lookups past the home ring's depth divert. The home worker may serve
  // one batch (32 jobs) in the pass under way when it is stalled, so at
  // least kDiverted of them reach the peer.
  constexpr std::size_t kDiverted = 32;
  const std::size_t copies = config.fifo_depth + 2 * kDiverted;

  // A /24 of chip 0 routed to a hop the generated RIB never uses.
  const std::uint32_t bound = runtime.boundaries().front().value();
  const Prefix target(Ipv4Address((bound / 2) & 0xFFFFFF00u), 24);
  const Ipv4Address address(target.range_low().value() + 7);
  const NextHop hot = clue::netbase::make_next_hop(60'001);
  runtime.apply({clue::workload::UpdateKind::kAnnounce, target, hot});
  ASSERT_EQ(runtime.indexing().tcam_of(address), kHome);
  ASSERT_EQ(runtime.lookup(address), hot);

  // Home hits fill the peer's DRed; diverted lookups then hit it.
  bool cached = false;
  for (int round = 0; round < 20 && !cached; ++round) {
    for (int i = 0; i < 4; ++i) {
      runtime.lookup_batch(std::vector<Ipv4Address>(256, address));
    }
    ASSERT_TRUE(eventually([&] {
      const auto m = runtime.metrics();
      return m.fills_applied + m.fills_declined + m.fills_dropped_stale >=
             m.fills_sent;
    }));
    const auto before = runtime.metrics();
    const auto hops = divert_batch(runtime, kHome, address, copies, [&] {
      return runtime.metrics().dred_lookups >=
             before.dred_lookups + kDiverted;
    });
    for (const NextHop hop : hops) ASSERT_EQ(hop, hot);
    cached = runtime.metrics().dred_hits > before.dred_hits;
  }
  ASSERT_TRUE(cached) << "the peer's DRed never cached the target";

  // The withdraw's erase reaches only the peer (chip 0 stores the
  // shape), and apply() returns while the peer's ring still holds it.
  Hook::stall(runtime, kPeer, Hook::kControl);
  auto withdrawn = std::async(std::launch::async, [&] {
    runtime.apply({clue::workload::UpdateKind::kWithdraw, target,
                   clue::netbase::kNoRoute});
  });
  if (withdrawn.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    runtime.stop();
    withdrawn.get();
    FAIL() << "apply() waited for a worker to drain its DRed sync";
  }
  withdrawn.get();
  EXPECT_GT(Hook::control_backlog(runtime, kPeer), 0u);
  EXPECT_EQ(Hook::control_backlog(runtime, kHome), 0u);
  const NextHop after = runtime.fib().ground_truth().lookup(address);
  ASSERT_NE(after, hot);

  const auto before = runtime.metrics();
  const auto hops = divert_batch(runtime, kHome, address, copies, [&] {
    return runtime.metrics().dred_lookups >= before.dred_lookups + kDiverted;
  });
  for (const NextHop hop : hops) ASSERT_EQ(hop, after);
  const auto m = runtime.metrics();
  EXPECT_EQ(m.dred_hits, before.dred_hits)
      << "a diverted job read the DRed the erase had not reached";
  EXPECT_EQ(m.dred_sync_returns - before.dred_sync_returns,
            m.dred_lookups - before.dred_lookups);
  EXPECT_EQ(m.miss_returns - before.miss_returns,
            m.dred_sync_returns - before.dred_sync_returns);
  EXPECT_GT(Hook::control_backlog(runtime, kPeer), 0u);

  // stop() applies the held erase: the peer's DRed no longer holds the
  // withdrawn route.
  runtime.stop();
  EXPECT_EQ(Hook::control_backlog(runtime, kPeer), 0u);
  for (const Route& route : runtime.dred(kPeer)->routes()) {
    EXPECT_NE(route.next_hop, hot) << route.prefix.to_string();
  }
}

// A fill whose route was read before a withdraw is dropped by a peer that
// has already applied the withdraw's erase: without the stamp it would
// be cached after the erase and serve the withdrawn hop.
TEST(LookupRuntimeTest, StaleFillIsDroppedAfterItsSweep) {
  const auto fib = make_fib(4'000, 2609);
  RuntimeConfig config;
  config.worker_count = 2;
  config.rebalance = false;
  LookupRuntime runtime(fib, config);
  constexpr std::size_t kHome = 0;
  constexpr std::size_t kPeer = 1;

  // A /24 of chip 0 routed to a hop the generated RIB never uses.
  const std::uint32_t bound = runtime.boundaries().front().value();
  const Prefix target(Ipv4Address((bound / 2) & 0xFFFFFF00u), 24);
  const Ipv4Address address(target.range_low().value() + 7);
  const NextHop hot = clue::netbase::make_next_hop(60'002);
  runtime.apply({clue::workload::UpdateKind::kAnnounce, target, hot});
  ASSERT_EQ(runtime.indexing().tcam_of(address), kHome);

  // Home hits queue fills of the target at the peer, which drains
  // neither its fills nor its control.
  Hook::stall(runtime, kPeer, Hook::kFills | Hook::kControl);
  // Let a pass under way finish before the fills arrive.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 0; i < 4; ++i) {
    for (const NextHop hop :
         runtime.lookup_batch(std::vector<Ipv4Address>(256, address))) {
      ASSERT_EQ(hop, hot);
    }
  }
  const auto queued = runtime.metrics();
  ASSERT_GT(queued.fills_sent, 1u);
  ASSERT_EQ(queued.fills_applied + queued.fills_declined +
                queued.fills_dropped_stale,
            0u);

  // The withdraw's erase reaches the peer, which applies it while the
  // fills still wait.
  runtime.apply({clue::workload::UpdateKind::kWithdraw, target,
                 clue::netbase::kNoRoute});
  ASSERT_GT(Hook::control_backlog(runtime, kPeer), 0u);
  Hook::release(runtime, kPeer, Hook::kControl);
  ASSERT_TRUE(eventually(
      [&] { return Hook::control_backlog(runtime, kPeer) == 0; }));

  Hook::release(runtime, kPeer, Hook::kFills);
  ASSERT_TRUE(eventually([&] {
    const auto m = runtime.metrics();
    return m.fills_applied + m.fills_declined + m.fills_dropped_stale ==
           m.fills_sent;
  }));
  EXPECT_GT(runtime.metrics().fills_dropped_stale, 0u);

  runtime.stop();
  EXPECT_FALSE(runtime.dred(kPeer)->contains(target))
      << "a fill read before the withdraw was cached after its erase";
}

// Each synced shape goes to every DRed but its storing chip's: a commit
// pushes (N-1) control messages per shape, where ClueSystem's modeled
// TTF3 charges one probe per shape.
TEST(LookupRuntimeTest, SweepSkipsTheStoringChip) {
  const auto fib = make_fib(10'000, 2602);
  clue::system::SystemConfig system_config;
  system_config.tcam_count = 4;
  system_config.rebalance = false;
  clue::system::ClueSystem system(fib, system_config);
  RuntimeConfig config;
  config.worker_count = 4;
  config.rebalance = false;
  const auto runtime = system.runtime(config);

  clue::workload::UpdateConfig update_config;
  update_config.seed = 2603;
  clue::workload::UpdateGenerator updates(fib, update_config);
  std::size_t synced_commits = 0;
  for (int i = 0; i < 400; ++i) {
    const auto message = updates.next();
    const std::size_t traced = runtime->ttf_trace().size();
    const double ttf3_ns = system.apply(message).ttf3_ns;
    runtime->apply(message);
    const auto trace = runtime->ttf_trace();
    const auto shapes = static_cast<std::uint32_t>(
        ttf3_ns / clue::update::CostModel::kTcamOpNs + 0.5);
    if (trace.size() == traced) {
      ASSERT_EQ(shapes, 0u) << "message " << i;
      continue;
    }
    ASSERT_EQ(trace.back().control_msgs,
              (runtime->worker_count() - 1) * shapes)
        << "message " << i;
    if (shapes > 0) ++synced_commits;
  }
  EXPECT_GT(synced_commits, 0u);
}

// After stop(), each runtime DRed holds only routes the same DRed of a
// ClueSystem fed the same lookups and updates holds (a fill is a
// stored shape current when drained; every later sync reaches both), and
// none of its own chip's. The last updates' syncs are held in every
// control ring until stop() applies them.
TEST(LookupRuntimeTest, StoppedDredsAreASubsetOfTheSerialHostsDreds) {
  const auto fib = make_fib(20'000, 2604);
  clue::system::SystemConfig system_config;
  system_config.tcam_count = 4;
  system_config.rebalance = false;
  // Large enough that the serial DReds never evict.
  system_config.dred_capacity = 1 << 16;
  clue::system::ClueSystem system(fib, system_config);
  RuntimeConfig config;
  config.worker_count = 4;
  config.fifo_depth = 16;
  config.rebalance = false;
  const auto runtime = system.runtime(config);

  // Zipf traffic over chip 0's shapes: chip 0 runs hot and fills the
  // peers' DReds. The serial host warms with the same addresses at the
  // same point of the update stream.
  std::vector<Prefix> hot;
  for (const auto& route : runtime->chip_routes(0)) hot.push_back(route.prefix);
  clue::workload::TrafficConfig traffic_config;
  traffic_config.seed = 2605;
  clue::workload::TrafficGenerator traffic(hot, traffic_config);
  clue::workload::UpdateConfig update_config;
  update_config.seed = 2606;
  clue::workload::UpdateGenerator updates(fib, update_config);
  for (int round = 0; round < 16; ++round) {
    const auto addresses = traffic.generate(4096);
    runtime->lookup_batch(addresses);
    system.warm(addresses);
    for (int i = 0; i < 16; ++i) {
      const auto message = updates.next();
      system.apply(message);
      runtime->apply(message);
    }
  }
  EXPECT_GT(runtime->metrics().diverted, 0u);

  // Re-route cached shapes while no worker drains its control ring.
  for (std::size_t w = 0; w < runtime->worker_count(); ++w) {
    Hook::stall(*runtime, w, Hook::kControl);
  }
  std::set<Prefix> rerouted;
  for (std::size_t i = 0; i < system.tcam_count() && rerouted.size() < 32;
       ++i) {
    for (const Route& cached : system.dred(i).routes()) {
      if (rerouted.size() == 32) break;
      if (!rerouted.insert(cached.prefix).second) continue;
      const clue::workload::UpdateMsg message{
          clue::workload::UpdateKind::kAnnounce, cached.prefix,
          clue::netbase::make_next_hop(
              static_cast<std::uint32_t>(61'000 + rerouted.size()))};
      system.apply(message);
      runtime->apply(message);
    }
  }
  ASSERT_FALSE(rerouted.empty());
  std::uint64_t held = 0;
  for (std::size_t w = 0; w < runtime->worker_count(); ++w) {
    held += Hook::control_backlog(*runtime, w);
  }
  EXPECT_GT(held, 0u);

  runtime->stop();
  std::size_t cached = 0;
  for (std::size_t i = 0; i < runtime->worker_count(); ++i) {
    EXPECT_EQ(Hook::control_backlog(*runtime, i), 0u);
    std::set<std::tuple<Prefix, NextHop>> serial;
    for (const Route& route : system.dred(i).routes()) {
      serial.emplace(route.prefix, route.next_hop);
    }
    std::set<Prefix> own;
    for (const Route& route : runtime->chip_routes(i)) {
      own.insert(route.prefix);
    }
    for (const Route& route : runtime->dred(i)->routes()) {
      ++cached;
      EXPECT_TRUE(serial.contains({route.prefix, route.next_hop}))
          << "DRed " << i << " holds " << route.prefix.to_string()
          << " -> " << clue::netbase::to_index(route.next_hop)
          << ", absent from the serial host's";
      EXPECT_FALSE(own.contains(route.prefix))
          << "DRed " << i << " caches its own " << route.prefix.to_string();
    }
  }
  EXPECT_GT(cached, 0u);
}

// A migration waits on no worker. With the donor serving no jobs and
// draining no control, and the receiver draining no control,
// rebalance_now() still returns. The donor then serves jobs routed by
// the old generation against its shrunk image: the ones it no longer
// covers come back as miss-returns, and the receiver answers them.
TEST(LookupRuntimeTest, MigrationReturnsWhileTheDonorHoldsOldJobs) {
  const auto fib = make_fib(4'000, 2607);
  RuntimeConfig config;
  config.worker_count = 2;
  config.rebalance = false;
  LookupRuntime runtime(fib, config);
  constexpr std::size_t kDonor = 0;
  constexpr std::size_t kReceiver = 1;

  // Skew the donor with hot announces; nothing rebalances them away.
  const std::uint32_t bound = runtime.boundaries().front().value();
  clue::netbase::Pcg32 rng(2608);
  while (runtime.skew() < clue::update::kSkewWatermark) {
    runtime.apply({clue::workload::UpdateKind::kAnnounce,
                   Prefix(Ipv4Address(rng.next_below(bound)), 24),
                   clue::netbase::make_next_hop(1 + rng.next_below(250))});
  }

  // One address per route at the donor's high end, next to the boundary:
  // the run a migration moves to the receiver. The batch fits the home
  // ring, so every job queues at the donor.
  const std::vector<Route> routes = runtime.chip_routes(kDonor);
  const std::size_t count = std::min<std::size_t>(128, routes.size());
  ASSERT_LE(count, config.fifo_depth);
  std::vector<Ipv4Address> batch;
  for (std::size_t i = routes.size() - count; i < routes.size(); ++i) {
    batch.push_back(routes[i].prefix.range_low());
  }

  Hook::stall(runtime, kDonor, Hook::kJobs | Hook::kControl);
  Hook::stall(runtime, kReceiver, Hook::kControl);
  const auto release = [&] {
    Hook::release(runtime, kDonor, Hook::kJobs | Hook::kControl);
    Hook::release(runtime, kReceiver, Hook::kControl);
  };
  // Let a pass under way finish before the jobs arrive.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  auto answers = std::async(std::launch::async,
                            [&] { return runtime.lookup_batch(batch); });
  if (!eventually([&] {
        return Hook::queued_jobs(runtime, kDonor) == batch.size();
      })) {
    release();
    answers.get();
    FAIL() << "the batch never queued at the donor";
  }

  auto steps = std::async(std::launch::async,
                          [&] { return runtime.rebalance_now(); });
  if (steps.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    release();
    steps.get();
    answers.get();
    FAIL() << "rebalance_now() waited for a stalled worker";
  }
  EXPECT_GT(steps.get(), 0u);
  std::size_t moved = 0;
  for (const Ipv4Address address : batch) {
    if (runtime.indexing().tcam_of(address) == kReceiver) ++moved;
  }
  ASSERT_GT(moved, 0u) << "the migration moved none of the queued jobs";
  EXPECT_EQ(Hook::queued_jobs(runtime, kDonor), batch.size());

  release();
  const std::vector<NextHop> hops = answers.get();
  const auto& truth = runtime.fib().ground_truth();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(hops[i], truth.lookup(batch[i])) << batch[i].to_string();
  }
  const auto m = runtime.metrics();
  EXPECT_GT(m.moved_returns, 0u);
  EXPECT_LE(m.moved_returns, m.miss_returns);
}

}  // namespace
