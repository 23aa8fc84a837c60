// Online boundary rebalancer: planner unit tests, migration correctness
// on the concurrent runtime and the serial system (and their agreement
// on one skew), overflow rejection
// with trie rollback on all three hosts, and the churn-soak — sustained
// skewed updates under concurrent lookups with a windowed version
// oracle (sized by CLUE_SOAK_UPDATES; see ci/check.sh's soak stage).
#include "update/rebalancer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "netbase/rng.hpp"
#include "partition/partition.hpp"
#include "runtime/lookup_runtime.hpp"
#include "system/clue_system.hpp"
#include "tcam/updater.hpp"
#include "update/chip_set.hpp"
#include "workload/rib_gen.hpp"
#include "workload/update_gen.hpp"

#include "test_support.hpp"

namespace {

using clue::test_support::make_fib;
using clue::test_support::random_addresses;

using clue::netbase::Ipv4Address;
using clue::netbase::make_next_hop;
using clue::netbase::NextHop;
using clue::netbase::Pcg32;
using clue::netbase::Prefix;
using clue::netbase::Route;
using clue::runtime::LookupRuntime;
using clue::runtime::RuntimeConfig;
using clue::update::ChipSet;
using clue::update::MigrationStep;
using clue::update::even_targets;
using clue::update::occupancy_skew;
using clue::update::plan_step;
using clue::update::should_rebalance;
using clue::workload::UpdateKind;
using clue::workload::UpdateMsg;

/// A fresh announce below `bound` (chip 0's range): the hot-churn shape
/// that drives occupancy skew.
UpdateMsg hot_announce(Pcg32& rng, std::uint32_t bound) {
  UpdateMsg msg;
  msg.kind = UpdateKind::kAnnounce;
  msg.prefix = Prefix(Ipv4Address(rng.next_below(bound)), 24);
  msg.next_hop = make_next_hop(1 + rng.next_below(250));
  return msg;
}

// ---------------------------------------------------------------------------
// Planner unit tests.

TEST(RebalancePlannerTest, SkewRatioCountsEmptyChipsAsOne) {
  const std::vector<std::size_t> even{100, 100, 100};
  EXPECT_DOUBLE_EQ(occupancy_skew(even), 1.0);
  const std::vector<std::size_t> two{200, 100};
  EXPECT_DOUBLE_EQ(occupancy_skew(two), 2.0);
  const std::vector<std::size_t> with_empty{0, 50};
  EXPECT_DOUBLE_EQ(occupancy_skew(with_empty), 50.0);
  const std::vector<std::size_t> single{123};
  EXPECT_DOUBLE_EQ(occupancy_skew(single), 1.0);
  EXPECT_DOUBLE_EQ(occupancy_skew({}), 1.0);
}

TEST(RebalancePlannerTest, EvenTargetsFrontLoadRemainder) {
  const std::vector<std::size_t> occupancy{14, 0, 0, 0};
  const auto targets = even_targets(occupancy);
  EXPECT_EQ(targets, (std::vector<std::size_t>{4, 4, 3, 3}));
}

TEST(RebalancePlannerTest, EvenTargetsDegeneratePutsSingletonsAtEnd) {
  // Mirrors partition::even_partition's degenerate layout: occupied
  // buckets at the end so the top chip keeps owning the address-space
  // top (a trailing empty bucket has no representable boundary).
  const std::vector<std::size_t> occupancy{2, 0, 0, 0};
  const auto targets = even_targets(occupancy);
  EXPECT_EQ(targets, (std::vector<std::size_t>{0, 0, 1, 1}));
}

TEST(RebalancePlannerTest, ShouldRebalanceRespectsWatermarksAndSwitch) {
  const std::vector<std::size_t> skewed{300, 100};
  EXPECT_TRUE(should_rebalance(skewed));
  const std::vector<std::size_t> even{200, 200};
  EXPECT_FALSE(should_rebalance(even));
  // Below kMinTotalEntries the skew trigger stays quiet...
  const std::vector<std::size_t> tiny{30, 10};
  EXPECT_FALSE(should_rebalance(tiny));
  // ...but the headroom trigger still fires when capacity says so.
  EXPECT_TRUE(should_rebalance(tiny, 32));

  // The switch belongs to the hosts: switched off, neither runs a pass
  // when hot churn crosses the skew watermark.
  const auto fib = make_fib(2'000, 2001);
  RuntimeConfig runtime_config;
  runtime_config.worker_count = 4;
  runtime_config.rebalance = false;
  LookupRuntime runtime(fib, runtime_config);
  clue::system::SystemConfig system_config;
  system_config.rebalance = false;
  clue::system::ClueSystem system(fib, system_config);
  const std::uint32_t bound = runtime.boundaries().front().value();
  Pcg32 rng(2002);
  for (int u = 0; u < 600; ++u) {
    const UpdateMsg msg = hot_announce(rng, bound);
    runtime.apply(msg);
    system.apply(msg);
  }
  EXPECT_TRUE(should_rebalance(runtime.chip_occupancy()));
  EXPECT_TRUE(should_rebalance(system.chip_occupancy()));
  EXPECT_EQ(runtime.metrics().rebalance_passes, 0u);
  EXPECT_GT(system.skew(), clue::update::kSkewWatermark);
}

TEST(RebalancePlannerTest, PlanStepNulloptWhenBalanced) {
  const std::vector<std::size_t> even{100, 100, 100, 100};
  EXPECT_FALSE(plan_step(even).has_value());
  const std::vector<std::size_t> off_by_remainder{101, 100, 100};
  EXPECT_FALSE(plan_step(off_by_remainder).has_value());
}

TEST(RebalancePlannerTest, PlanStepConvergesToEvenFromAnySkew) {
  Pcg32 rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 2 + rng.next_below(6);
    std::vector<std::size_t> occupancy(n);
    for (auto& o : occupancy) o = rng.next_below(2000);
    // Simulate: every planned step must be executable as stated and the
    // loop must terminate at the even targets.
    for (int steps = 0; steps < 1000; ++steps) {
      const auto step = plan_step(occupancy);
      if (!step) break;
      ASSERT_TRUE(step->receiver == step->donor + 1 ||
                  step->donor == step->receiver + 1);
      ASSERT_GT(step->count, 0u);
      ASSERT_LE(step->count, occupancy[step->donor]);
      if (step->receiver < step->donor) {
        // Leftward donors must keep their top entry.
        ASSERT_LT(step->count, occupancy[step->donor]);
      }
      occupancy[step->donor] -= step->count;
      occupancy[step->receiver] += step->count;
    }
    EXPECT_FALSE(plan_step(occupancy).has_value());
    const auto targets = even_targets(occupancy);
    EXPECT_EQ(occupancy, targets) << "trial " << trial;
  }
}

// ChipSet::migration_run: the run both hosts' migrate() execute, read off
// the donor's flat image.

std::vector<Route> four_routes() {
  std::vector<Route> routes;
  for (const char* text : {"10.0.0.0/8", "20.0.0.0/8", "30.0.0.0/8",
                           "40.0.0.0/8"}) {
    routes.push_back({*Prefix::parse(text), make_next_hop(1)});
  }
  return routes;
}

/// A chip set of `buckets.size()` chips, chip i painted from buckets[i],
/// with `capacity` entries per chip. migration_run reads only the images,
/// so every boundary sits at 0.0.0.0.
ChipSet chip_set(const std::vector<std::vector<Route>>& buckets,
                 std::size_t capacity) {
  clue::partition::PartitionResult layout;
  for (const auto& routes : buckets) layout.buckets.push_back({routes});
  layout.boundaries.assign(buckets.size() - 1, Ipv4Address(0));
  return ChipSet(layout, capacity);
}

/// Three chips: `routes` on chip `donor`, the others empty.
ChipSet chips_with(std::size_t donor, const std::vector<Route>& routes,
                   std::size_t capacity) {
  std::vector<std::vector<Route>> buckets(3);
  buckets[donor] = routes;
  return chip_set(buckets, capacity);
}

TEST(RebalancePlannerTest, MigrationRunRightwardTakesTopRoutes) {
  const auto routes = four_routes();
  const auto run = chips_with(1, routes, 100).migration_run(
      MigrationStep{.donor = 1, .receiver = 2, .count = 2});
  EXPECT_EQ(run.routes, (std::vector<Route>{routes[2], routes[3]}));
  EXPECT_EQ(run.boundary, 1u);  // between donor 1 and receiver 2
  // The receiver's range now begins at the first route to cross.
  EXPECT_EQ(run.new_boundary, routes[2].prefix.range_low());
}

TEST(RebalancePlannerTest, MigrationRunLeftwardTakesBottomRoutes) {
  const auto routes = four_routes();
  const auto run = chips_with(2, routes, 100).migration_run(
      MigrationStep{.donor = 2, .receiver = 1, .count = 2});
  EXPECT_EQ(run.routes, (std::vector<Route>{routes[0], routes[1]}));
  EXPECT_EQ(run.boundary, 1u);
  // The donor's range now begins at the first route that stays.
  EXPECT_EQ(run.new_boundary, routes[2].prefix.range_low());
}

TEST(RebalancePlannerTest, MigrationRunLeftwardDonorKeepsOneRoute) {
  const auto routes = four_routes();
  const auto run = chips_with(1, routes, 100).migration_run(
      MigrationStep{.donor = 1, .receiver = 0, .count = 10});
  EXPECT_EQ(run.routes,
            (std::vector<Route>{routes[0], routes[1], routes[2]}));
  EXPECT_EQ(run.new_boundary, routes[3].prefix.range_low());
  // A rightward donor may give everything it holds.
  const auto all = chips_with(0, routes, 100).migration_run(
      MigrationStep{.donor = 0, .receiver = 1, .count = 10});
  EXPECT_EQ(all.routes, routes);
  EXPECT_EQ(all.new_boundary, routes[0].prefix.range_low());
}

TEST(RebalancePlannerTest, MigrationRunClampsToReceiverFreeCapacity) {
  const auto routes = four_routes();
  const MigrationStep step{.donor = 0, .receiver = 1, .count = 3};
  const auto run = chips_with(0, routes, 1).migration_run(step);
  EXPECT_EQ(run.routes, (std::vector<Route>{routes[3]}));
  EXPECT_EQ(run.new_boundary, routes[3].prefix.range_low());
  EXPECT_TRUE(chips_with(0, routes, 0).migration_run(step).routes.empty());
  // The receiver's stored routes count against its capacity.
  const std::vector<std::vector<Route>> split{
      {routes[0], routes[1]}, {routes[2], routes[3]}};
  EXPECT_EQ(chip_set(split, 3).migration_run(step).routes,
            (std::vector<Route>{routes[1]}));
  EXPECT_TRUE(chips_with(2, routes, 9)
                  .migration_run(
                      MigrationStep{.donor = 1, .receiver = 0, .count = 3})
                  .routes.empty());
}

// ---------------------------------------------------------------------------
// Concurrent runtime: migrations keep lookups exact, shed skew, and
// preserve the DRed exclusion invariant.

TEST(RebalanceTest, RuntimeShedsSkewUnderHotChurnAndStaysExact) {
  const auto fib = make_fib(8'000, 2101);
  RuntimeConfig config;
  config.worker_count = 4;
  config.fifo_depth = 16;  // small FIFOs: hot lookups divert -> DRed fills
  LookupRuntime runtime(fib, config);
  ASSERT_FALSE(runtime.boundaries().empty());
  const std::uint32_t bound = runtime.boundaries().front().value();

  Pcg32 rng(2102);
  // Warm the DReds with hot traffic so later migrations must uphold the
  // exclusion invariant against populated caches.
  std::vector<Ipv4Address> hot;
  for (int i = 0; i < 8'192; ++i) hot.emplace_back(rng.next_below(bound));
  runtime.lookup_batch(hot);

  for (int u = 0; u < 2'000; ++u) {
    runtime.apply(hot_announce(rng, bound));
    if (u % 64 == 0) runtime.lookup_batch(hot);
  }

  const auto metrics = runtime.metrics();
  EXPECT_GT(metrics.rebalance_passes, 0u) << "hot churn never tripped skew";
  EXPECT_GT(metrics.entries_migrated, 0u);
  EXPECT_EQ(metrics.updates_rejected, 0u);
  runtime.rebalance_now();
  EXPECT_LE(runtime.skew(), 1.25);

  // Every lookup answer must match the ground truth exactly (the data
  // plane is quiescent between batches).
  const auto sweep = random_addresses(20'000, 2103);
  const auto hops = runtime.lookup_batch(sweep);
  const auto& truth = runtime.fib().ground_truth();
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    ASSERT_EQ(hops[i], truth.lookup(sweep[i]))
        << "address " << sweep[i].to_string();
  }

  // DRed exclusion (§IV-C): after migrations, no worker's DRed caches a
  // prefix that now homes on that same worker.
  runtime.stop();
  const auto& indexing = runtime.indexing();
  for (std::size_t w = 0; w < runtime.worker_count(); ++w) {
    const auto* dred = runtime.dred(w);
    ASSERT_NE(dred, nullptr);
    for (const auto& prefix : dred->contents()) {
      EXPECT_NE(indexing.tcam_of(prefix.range_low()), w)
          << "worker " << w << " caches its own " << prefix.to_string();
    }
  }
}

TEST(RebalanceTest, RebalanceNowIsNoopWhenAlreadyEven) {
  const auto fib = make_fib(4'000, 2201);
  RuntimeConfig config;
  config.worker_count = 4;
  LookupRuntime runtime(fib, config);
  EXPECT_EQ(runtime.rebalance_now(), 0u);
  const auto metrics = runtime.metrics();
  EXPECT_EQ(metrics.entries_migrated, 0u);
}

TEST(RebalanceTest, RuntimeRejectsOverflowAfterEmergencyRebalance) {
  const auto fib = make_fib(1'000, 2301);
  RuntimeConfig config;
  config.worker_count = 2;
  config.chip_capacity = 700;  // tight: full table ~>1000 entries
  LookupRuntime runtime(fib, config);
  ASSERT_FALSE(runtime.boundaries().empty());
  const std::uint32_t bound = runtime.boundaries().front().value();

  Pcg32 rng(2302);
  bool rejected = false;
  Prefix rejected_prefix;
  for (int u = 0; u < 3'000 && !rejected; ++u) {
    const auto msg = hot_announce(rng, bound);
    try {
      runtime.apply(msg);
    } catch (const clue::tcam::TcamFullError& error) {
      rejected = true;
      rejected_prefix = msg.prefix;
      EXPECT_EQ(error.capacity(), runtime.chip_capacity());
    }
  }
  ASSERT_TRUE(rejected) << "capacity 700 x2 never filled";
  const auto metrics = runtime.metrics();
  EXPECT_GE(metrics.updates_rejected, 1u);
  // The emergency path rebalanced before giving up.
  EXPECT_GT(metrics.rebalance_passes, 0u);

  // Rollback left trie, chips and DReds mutually consistent: the
  // rejected prefix is not in the ground truth, and the data plane still
  // answers exactly.
  EXPECT_FALSE(
      runtime.fib().ground_truth().find(rejected_prefix).has_value());
  const auto sweep = random_addresses(10'000, 2303);
  const auto hops = runtime.lookup_batch(sweep);
  const auto& truth = runtime.fib().ground_truth();
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    ASSERT_EQ(hops[i], truth.lookup(sweep[i]));
  }

  // Still usable: withdrawals free space, then announces land again.
  UpdateMsg withdraw;
  withdraw.kind = UpdateKind::kWithdraw;
  withdraw.prefix = rejected_prefix;  // absorbed (never made it in)
  runtime.apply(withdraw);
}

// Quiescent-runtime invariants after migrations: every chip stores a
// disjoint, address-ordered run inside its own range, as many shapes as
// its occupancy says; every address (sampled, plus each stored shape's
// edges) resolves as the compressed table does; and every retired
// version is reclaimed.
void expect_chips_consistent(LookupRuntime& runtime, std::uint64_t seed) {
  const auto& boundaries = runtime.boundaries();
  const auto occupancy = runtime.chip_occupancy();
  std::vector<Ipv4Address> probes = random_addresses(4'000, seed);
  for (std::size_t chip = 0; chip < runtime.worker_count(); ++chip) {
    const std::uint64_t lo = chip == 0 ? 0 : boundaries[chip - 1].value();
    const std::uint64_t hi = chip + 1 == runtime.worker_count()
                                 ? 0xFFFF'FFFFull
                                 : boundaries[chip].value() - 1ull;
    const auto routes = runtime.chip_routes(chip);
    EXPECT_EQ(routes.size(), occupancy[chip]) << "chip " << chip;
    for (std::size_t i = 0; i < routes.size(); ++i) {
      const Prefix& prefix = routes[i].prefix;
      EXPECT_GE(prefix.range_low().value(), lo) << prefix.to_string();
      EXPECT_LE(prefix.range_high().value(), hi) << prefix.to_string();
      if (i > 0) {
        EXPECT_GT(prefix.range_low().value(),
                  routes[i - 1].prefix.range_high().value())
            << prefix.to_string() << " overlaps its predecessor";
      }
      probes.push_back(prefix.range_low());
      probes.push_back(prefix.range_high());
    }
  }
  const auto hops = runtime.lookup_batch(probes);
  const auto& compressed = runtime.fib().compressed();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(hops[i], compressed.lookup(probes[i]))
        << "address " << probes[i].to_string();
  }
  runtime.reclaim();
  const auto m = runtime.metrics();
  EXPECT_EQ(m.tables_pending, 0u);
  EXPECT_EQ(m.tables_reclaimed, m.tables_published);
}

bool stores(const LookupRuntime& runtime, std::size_t chip,
            const clue::netbase::Route& route) {
  const auto routes = runtime.chip_routes(chip);
  return std::find(routes.begin(), routes.end(), route) != routes.end();
}

// A compressed route that straddles a boundary is stored as two pieces.
// When a migration moves the boundary past it, the receiver must hold
// both pieces — its chip state, not a fresh split of the compressed
// table at the new boundaries, which would give one /24 — and a later
// withdrawal must find and erase both.
TEST(RebalanceTest, MigrationKeepsBothPiecesOfASplitRoute) {
  clue::trie::BinaryTrie fib;
  for (std::uint32_t i = 0; i < 16; ++i) {  // chip 0: 9.0.{0,2,..,30}.0/24
    fib.insert(Prefix(Ipv4Address::from_octets(9, 0, 2 * i, 0), 24),
               make_next_hop(1 + i));
  }
  fib.insert(*Prefix::parse("10.0.0.0/25"), make_next_hop(20));
  fib.insert(*Prefix::parse("10.0.0.128/25"), make_next_hop(21));
  for (std::uint32_t i = 0; i < 16; ++i) {  // chip 1: 11.0.{0,2,..}.0/24
    fib.insert(Prefix(Ipv4Address::from_octets(11, 0, 2 * i, 0), 24),
               make_next_hop(30 + i));
  }
  RuntimeConfig config;
  config.worker_count = 2;
  config.rebalance = false;  // migrations only when asked
  LookupRuntime runtime(fib, config);
  const Ipv4Address boundary = Ipv4Address::from_octets(10, 0, 0, 128);
  ASSERT_EQ(runtime.boundaries(),
            std::vector<Ipv4Address>{boundary});

  // The /25s give way to one /24 across the boundary: two pieces.
  runtime.apply(clue::test_support::announce("10.0.0.0/24", 50));
  runtime.apply(clue::test_support::withdraw("10.0.0.0/25"));
  runtime.apply(clue::test_support::withdraw("10.0.0.128/25"));
  ASSERT_TRUE(runtime.fib().compressed().find(*Prefix::parse("10.0.0.0/24")));
  const clue::netbase::Route lo{*Prefix::parse("10.0.0.0/25"),
                                make_next_hop(50)};
  const clue::netbase::Route hi{*Prefix::parse("10.0.0.128/25"),
                                make_next_hop(50)};
  ASSERT_TRUE(stores(runtime, 0, lo));
  ASSERT_TRUE(stores(runtime, 1, hi));

  // Chip 1 grows, and the forced pass moves its bottom run — the upper
  // piece first — to chip 0.
  for (std::uint32_t i = 0; i < 24; ++i) {
    runtime.apply(UpdateMsg{UpdateKind::kAnnounce,
                            Prefix(Ipv4Address::from_octets(12, 0, 2 * i, 0),
                                   24),
                            make_next_hop(60 + i)});
  }
  ASSERT_GT(runtime.rebalance_now(), 0u);
  ASSERT_GT(runtime.boundaries().front().value(), boundary.value());
  EXPECT_TRUE(stores(runtime, 0, lo));
  EXPECT_TRUE(stores(runtime, 0, hi));
  expect_chips_consistent(runtime, 2501);

  // Both pieces are the /24's stored shapes now, on one chip (where the
  // same-hop pair may sit as one collapsed /24 slot): withdrawing the
  // /24 erases both.
  runtime.apply(clue::test_support::withdraw("10.0.0.0/24"));
  EXPECT_FALSE(stores(runtime, 0, lo));
  EXPECT_FALSE(stores(runtime, 0, hi));
  EXPECT_EQ(runtime.lookup(Ipv4Address::from_octets(10, 0, 0, 200)),
            clue::netbase::kNoRoute);
  expect_chips_consistent(runtime, 2502);
}

TEST(RebalanceTest, ForcedPassesKeepChipsDisjointInRangeAndExact) {
  const auto fib = make_fib(6'000, 2601);
  RuntimeConfig config;
  config.worker_count = 4;
  config.rebalance = false;  // only the forced passes below migrate
  LookupRuntime runtime(fib, config);
  Pcg32 rng(2602);
  std::size_t steps = 0;
  for (int round = 0; round < 6; ++round) {
    // Hot churn into one chip's range (alternating ends), then even out.
    const auto& boundaries = runtime.boundaries();
    const bool low_end = round % 2 == 0;
    const std::uint32_t base = low_end ? 0 : boundaries.back().value();
    const std::uint32_t span =
        low_end ? boundaries.front().value()
                : 0xFFFF'FFFFu - boundaries.back().value();
    for (int u = 0; u < 400; ++u) {
      // hot_announce draws below `span`; `base` shifts it into the chip.
      UpdateMsg msg = hot_announce(rng, span);
      msg.prefix =
          Prefix(Ipv4Address(base + msg.prefix.range_low().value()), 24);
      runtime.apply(msg);
    }
    steps += runtime.rebalance_now();
    EXPECT_LE(runtime.skew(), 1.25) << "round " << round;
    expect_chips_consistent(runtime, 2603 + round);
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(steps, 0u);
}

// ---------------------------------------------------------------------------
// Serial system mirror.

TEST(RebalanceTest, SystemShedsSkewUnderHotChurnAndStaysExact) {
  const auto fib = make_fib(8'000, 2401);
  clue::system::SystemConfig config;
  config.tcam_count = 4;
  clue::system::ClueSystem system(fib, config);

  Pcg32 rng(2402);
  // The serial system homes addresses below the first boundary at chip 0
  // just like the runtime; reuse the hottest /8s of the generated rib.
  const std::uint32_t bound = 0x20000000u;
  for (int u = 0; u < 2'000; ++u) {
    system.apply(hot_announce(rng, bound));
  }
  system.rebalance_now();
  EXPECT_LE(system.skew(), 1.25);
  EXPECT_EQ(system.updates_rejected(), 0u);

  const auto sweep = random_addresses(20'000, 2403);
  const auto& truth = system.fib().ground_truth();
  for (const auto address : sweep) {
    ASSERT_EQ(system.lookup(address), truth.lookup(address))
        << "address " << address.to_string();
  }
  // Chip contents and trie agree entry for entry (after splits).
  EXPECT_GE(system.total_tcam_entries(), system.fib().size());

  clue::obs::MetricsRegistry registry;
  system.export_metrics(registry);
  bool found_skew = false;
  for (const auto& [name, value] : registry.gauges()) {
    if (name == "system.skew") {
      found_skew = true;
      EXPECT_LE(value, 1.25);
    }
  }
  EXPECT_TRUE(found_skew);
}

// Both hosts hold their chips as an update::ChipSet, which picks and stages
// every migration run, so the same skew must rebalance identically.
TEST(RebalanceTest, SystemAndRuntimeMigrateIdentically) {
  const auto fib = make_fib(8'000, 2451);
  constexpr std::size_t kChips = 4;
  constexpr std::size_t kCapacity = 20'000;
  clue::system::ClueSystem system(
      fib, clue::system::SystemConfig{.tcam_count = kChips,
                                      .tcam_capacity = kCapacity,
                                      .rebalance = false});
  RuntimeConfig config;
  config.worker_count = kChips;
  config.chip_capacity = kCapacity;
  config.rebalance = false;
  LookupRuntime runtime(fib, config);

  Pcg32 rng(2452);
  for (int u = 0; u < 2'000; ++u) {
    const UpdateMsg message = hot_announce(rng, 0x20000000u);
    system.apply(message);
    runtime.apply(message);
  }
  ASSERT_GT(system.skew(), 1.25);
  ASSERT_EQ(runtime.chip_occupancy(), system.chip_occupancy());
  // Warm DReds hold other chips' shapes that are about to migrate.
  system.warm(random_addresses(20'000, 2453));

  const std::size_t steps = system.rebalance_now();
  EXPECT_GT(steps, 0u);
  EXPECT_EQ(runtime.rebalance_now(), steps);
  EXPECT_EQ(runtime.chip_occupancy(), system.chip_occupancy());
  EXPECT_EQ(runtime.boundaries(), system.engine_setup().bucket_boundaries);
  for (std::size_t chip = 0; chip < kChips; ++chip) {
    EXPECT_EQ(system.chip(chip).stored_within(Prefix()),
              runtime.chip_routes(chip))
        << "chip " << chip;
  }

  // Exclusion: DRed i caches no shape chip i stores, and each cached shape
  // is stored on some other chip with the cached hop.
  for (std::size_t i = 0; i < kChips; ++i) {
    for (const Route& cached : system.dred(i).routes()) {
      std::size_t homes = 0;
      for (std::size_t chip = 0; chip < kChips; ++chip) {
        const auto stored =
            system.chip(chip).lookup_route(cached.prefix.range_low());
        if (stored != cached) continue;
        ++homes;
        EXPECT_NE(chip, i) << "DRed " << i << " caches its own chip's "
                           << cached.prefix.to_string();
      }
      EXPECT_EQ(homes, 1u) << cached.prefix.to_string();
    }
  }
  runtime.stop();
}

TEST(RebalanceTest, SystemRejectsOverflowAndRollsBackTrie) {
  const auto fib = make_fib(1'000, 2501);
  clue::system::SystemConfig config;
  config.tcam_count = 2;
  config.tcam_capacity = 700;
  clue::system::ClueSystem system(fib, config);

  Pcg32 rng(2502);
  bool rejected = false;
  Prefix rejected_prefix;
  for (int u = 0; u < 3'000 && !rejected; ++u) {
    const auto msg = hot_announce(rng, 0x20000000u);
    try {
      system.apply(msg);
    } catch (const clue::tcam::TcamFullError&) {
      rejected = true;
      rejected_prefix = msg.prefix;
    }
  }
  ASSERT_TRUE(rejected);
  EXPECT_GE(system.updates_rejected(), 1u);
  EXPECT_FALSE(
      system.fib().ground_truth().find(rejected_prefix).has_value());

  const auto sweep = random_addresses(10'000, 2503);
  const auto& truth = system.fib().ground_truth();
  for (const auto address : sweep) {
    ASSERT_EQ(system.lookup(address), truth.lookup(address));
  }
}

// ---------------------------------------------------------------------------
// Single chip: recoverable overflow with nowhere to migrate.

TEST(RebalanceTest, OneChipSystemRejectsOverflowAndRollsBackTrie) {
  const auto fib = make_fib(1'000, 2601);
  clue::system::SystemConfig config{.tcam_count = 1};
  clue::system::ClueSystem sized(fib, config);  // probe the table size
  config.tcam_capacity = sized.chip(0).route_count() + 2;
  clue::system::ClueSystem system(fib, config);

  Pcg32 rng(2602);
  bool rejected = false;
  Prefix rejected_prefix;
  for (int u = 0; u < 200 && !rejected; ++u) {
    const auto msg = hot_announce(rng, 0xFFFFFFFFu);
    try {
      system.apply(msg);
    } catch (const clue::tcam::TcamFullError& error) {
      rejected = true;
      rejected_prefix = msg.prefix;
      EXPECT_EQ(error.capacity(), system.tcam_capacity());
    }
  }
  ASSERT_TRUE(rejected);
  EXPECT_EQ(system.updates_rejected(), 1u);
  EXPECT_FALSE(
      system.fib().ground_truth().find(rejected_prefix).has_value());

  const auto sweep = random_addresses(10'000, 2603);
  const auto& truth = system.fib().ground_truth();
  for (const auto address : sweep) {
    ASSERT_EQ(system.lookup(address), truth.lookup(address));
  }

  clue::obs::MetricsRegistry registry;
  system.export_metrics(registry);
  bool found_headroom = false;
  for (const auto& [name, value] : registry.gauges()) {
    if (name == "system.headroom_remaining") {
      found_headroom = true;
      EXPECT_DOUBLE_EQ(value,
                       1.0 - static_cast<double>(system.chip(0).route_count()) /
                                 static_cast<double>(system.tcam_capacity()));
    }
  }
  EXPECT_TRUE(found_headroom);
}

// ---------------------------------------------------------------------------
// The churn-soak: sustained skewed announce/withdraw churn applied from
// a control thread while the client hammers lookups. Every answer must
// match the ground truth of *some* update version the data plane could
// have exposed during its batch (windowed oracle over a bounded ring of
// recent versions), no apply may throw, and the final occupancy must be
// even after rebalancing. CLUE_SOAK_UPDATES scales the run (ci/check.sh
// sets 500000 in the soak stage; the default keeps ctest quick).

std::size_t soak_updates() {
  if (const char* env = std::getenv("CLUE_SOAK_UPDATES")) {
    const auto parsed = std::strtoull(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 20'000;
}

void run_churn_soak(std::size_t fifo_depth) {
  const std::size_t kUpdates = soak_updates();
  const auto fib = make_fib(4'000, 2701);
  RuntimeConfig config;
  config.worker_count = 4;
  config.fifo_depth = fifo_depth;
  LookupRuntime runtime(fib, config);
  ASSERT_FALSE(runtime.boundaries().empty());
  const std::uint32_t bound = runtime.boundaries().front().value();

  // Lookup pool: half uniform, half hot, so migrated regions stay under
  // constant lookup pressure.
  constexpr std::size_t kPool = 256;
  std::vector<Ipv4Address> pool = random_addresses(kPool / 2, 2702);
  {
    Pcg32 rng(2703);
    while (pool.size() < kPool) pool.emplace_back(rng.next_below(bound));
  }

  // Windowed oracle over the last kRing published versions. The control
  // thread records each version's pool answers (release-published via
  // `latest`); the client checks its batch against every version in
  // [g0, g1]. Relaxed atomics keep the ring TSan-clean.
  constexpr std::size_t kRing = 1024;
  constexpr std::size_t kGuard = 64;  // overwrite safety margin
  std::vector<std::array<std::atomic<std::uint32_t>, kPool>> ring(kRing);
  std::atomic<std::uint64_t> latest{0};
  const auto record = [&](std::uint64_t version,
                          const clue::trie::BinaryTrie& truth) {
    auto& slot = ring[version % kRing];
    for (std::size_t i = 0; i < kPool; ++i) {
      slot[i].store(static_cast<std::uint32_t>(truth.lookup(pool[i])),
                    std::memory_order_relaxed);
    }
    latest.store(version, std::memory_order_release);
  };
  record(0, fib);

  std::atomic<bool> done{false};
  std::atomic<bool> apply_threw{false};
  std::thread control([&] {
    Pcg32 rng(2704);
    std::vector<Prefix> hot_live;  // announced and not yet withdrawn
    const std::size_t kHotTarget = 2'000;
    std::uint64_t recorded = 0;
    for (std::size_t u = 0; u < kUpdates; ++u) {
      UpdateMsg msg;
      const bool announce =
          hot_live.size() < kHotTarget || rng.next_below(2) == 0;
      if (announce) {
        msg = hot_announce(rng, bound);
        hot_live.push_back(msg.prefix);
      } else {
        const std::size_t pick = rng.next_below(
            static_cast<std::uint32_t>(hot_live.size()));
        msg.kind = UpdateKind::kWithdraw;
        msg.prefix = hot_live[pick];
        hot_live[pick] = hot_live.back();
        hot_live.pop_back();
      }
      try {
        runtime.apply(msg);
      } catch (...) {
        apply_threw.store(true, std::memory_order_release);
        break;
      }
      const std::uint64_t completed = runtime.updates_completed();
      if (completed > recorded) {
        recorded = completed;
        record(recorded, runtime.fib().ground_truth());
      }
    }
    done.store(true, std::memory_order_release);
  });

  Pcg32 rng(2705);
  std::size_t checked = 0;
  std::size_t skipped = 0;
  std::size_t mismatches = 0;
  while (!done.load(std::memory_order_acquire)) {
    std::array<std::uint32_t, 128> picks;
    std::vector<Ipv4Address> batch;
    batch.reserve(picks.size());
    for (auto& pick : picks) {
      pick = rng.next_below(kPool);
      batch.push_back(pool[pick]);
    }
    const std::uint64_t g0 = runtime.updates_completed();
    const auto hops = runtime.lookup_batch(batch);
    const std::uint64_t g1 = runtime.updates_started();
    // The oracle for g1 is written slightly after apply() returns; wait
    // for it (the control thread is actively publishing).
    while (latest.load(std::memory_order_acquire) < g1 &&
           !done.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    if (latest.load(std::memory_order_acquire) < g1 ||
        g1 - g0 >= kRing - kGuard) {
      ++skipped;
      continue;
    }
    std::size_t batch_mismatches = 0;
    for (std::size_t i = 0; i < picks.size(); ++i) {
      bool matched = false;
      for (std::uint64_t v = g0; v <= g1 && !matched; ++v) {
        matched = ring[v % kRing][picks[i]].load(
                      std::memory_order_relaxed) ==
                  static_cast<std::uint32_t>(hops[i]);
      }
      if (!matched) ++batch_mismatches;
      ++checked;
    }
    // Discard the batch if the ring could have been overwritten under
    // the comparison (client fell > kRing-kGuard versions behind).
    if (runtime.updates_completed() >= g0 + (kRing - kGuard)) {
      ++skipped;
      checked -= picks.size();
      continue;
    }
    mismatches += batch_mismatches;
  }
  control.join();

  EXPECT_FALSE(apply_threw.load()) << "apply() threw during the soak";
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(checked, 0u);

  const auto metrics = runtime.metrics();
  EXPECT_EQ(metrics.updates_rejected, 0u);
  EXPECT_GT(metrics.rebalance_passes, 0u) << "soak never tripped a watermark";
  EXPECT_GT(metrics.entries_migrated, 0u);

  // Post-rebalance evenness (the ISSUE's acceptance bound).
  runtime.rebalance_now();
  EXPECT_LE(runtime.skew(), 1.25);

  // Quiescent exact sweep + epoch accounting.
  const auto sweep = random_addresses(10'000, 2706);
  const auto hops = runtime.lookup_batch(sweep);
  const auto& truth = runtime.fib().ground_truth();
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    ASSERT_EQ(hops[i], truth.lookup(sweep[i]))
        << "address " << sweep[i].to_string();
  }
  runtime.reclaim();
  const auto final_metrics = runtime.metrics();
  EXPECT_EQ(final_metrics.tables_pending, 0u);
  EXPECT_EQ(final_metrics.tables_reclaimed, final_metrics.tables_published);

  // DRed exclusion survives the whole soak.
  runtime.stop();
  const auto& indexing = runtime.indexing();
  for (std::size_t w = 0; w < runtime.worker_count(); ++w) {
    const auto* dred = runtime.dred(w);
    ASSERT_NE(dred, nullptr);
    for (const auto& prefix : dred->contents()) {
      EXPECT_NE(indexing.tcam_of(prefix.range_low()), w)
          << "worker " << w << " caches its own " << prefix.to_string();
    }
  }
}

TEST(RebalanceSoakTest, ChurnSoakKeepsSkewBoundedAndAnswersInWindow) {
  run_churn_soak(64);
}

// The home FIFO holds exactly fifo_depth jobs (5 here, not a power of
// two): migrations run against a full 5-slot home ring, whose jobs routed
// before a boundary move must still be answered right.
TEST(RebalanceSoakTest, ChurnSoakAtNonPowerOfTwoFifoDepth) {
  run_churn_soak(5);
}

}  // namespace
