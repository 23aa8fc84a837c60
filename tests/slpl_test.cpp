#include "engine/slpl_setup.hpp"

#include <gtest/gtest.h>

#include "netbase/rng.hpp"
#include "onrtc/onrtc.hpp"
#include "partition/partition.hpp"
#include "workload/rib_gen.hpp"
#include "workload/traffic_gen.hpp"

namespace clue::engine {
namespace {

using netbase::Prefix;

std::vector<netbase::Route> test_table(std::uint64_t seed,
                                       std::size_t routes = 3'000) {
  workload::RibConfig config;
  config.table_size = routes;
  config.seed = seed;
  return onrtc::compress(workload::generate_rib(config));
}

std::vector<std::uint64_t> synthetic_load(std::size_t buckets,
                                          std::size_t hot_bucket) {
  std::vector<std::uint64_t> load(buckets, 10);
  load[hot_bucket] = 10'000;
  return load;
}

TEST(SlplSetup, ValidatesArguments) {
  const auto table = test_table(701);
  SlplConfig config;
  config.buckets = 8;
  EXPECT_THROW(build_slpl_setup(table, std::vector<std::uint64_t>(7, 1),
                                config),
               std::invalid_argument);
  config.tcam_count = 1;
  EXPECT_THROW(build_slpl_setup(table, std::vector<std::uint64_t>(8, 1),
                                config),
               std::invalid_argument);
}

TEST(SlplSetup, EveryBucketHasAtLeastOneHome) {
  const auto table = test_table(703);
  SlplConfig config;
  config.buckets = 16;
  const auto setup =
      build_slpl_setup(table, synthetic_load(16, 3), config);
  ASSERT_EQ(setup.bucket_homes.size(), 16u);
  for (const auto& homes : setup.bucket_homes) {
    EXPECT_GE(homes.size(), 1u);
    for (const auto chip : homes) EXPECT_LT(chip, config.tcam_count);
  }
}

TEST(SlplSetup, HotBucketGetsReplicated) {
  const auto table = test_table(705);
  SlplConfig config;
  config.buckets = 16;
  config.replication_budget = 0.25;
  const auto setup =
      build_slpl_setup(table, synthetic_load(16, 3), config);
  EXPECT_GT(setup.bucket_homes[3].size(), 1u);
}

TEST(SlplSetup, ReplicationBudgetIsRespected) {
  const auto table = test_table(707);
  SlplConfig config;
  config.buckets = 16;
  config.replication_budget = 0.25;
  const auto setup =
      build_slpl_setup(table, synthetic_load(16, 0), config);
  std::size_t total = 0;
  for (const auto& routes : setup.tcam_routes) total += routes.size();
  EXPECT_LE(total, table.size() + static_cast<std::size_t>(
                                      0.25 * static_cast<double>(table.size()) + 1));
  EXPECT_GE(total, table.size());
}

TEST(SlplSetup, ChipContentsMatchHomeAssignments) {
  const auto table = test_table(709);
  SlplConfig config;
  config.buckets = 8;
  const auto setup = build_slpl_setup(table, synthetic_load(8, 2), config);
  const auto partitions = partition::even_partition(table, 8);
  for (std::size_t bucket = 0; bucket < 8; ++bucket) {
    for (const auto chip : setup.bucket_homes[bucket]) {
      // Every route of the bucket must be present on every home chip.
      for (const auto& route : partitions.buckets[bucket].routes) {
        const auto& routes = setup.tcam_routes[chip];
        EXPECT_NE(std::find(routes.begin(), routes.end(), route),
                  routes.end())
            << "bucket " << bucket << " chip " << chip;
      }
    }
  }
}

TEST(SlplEngine, RequiresBucketHomes) {
  const auto table = test_table(711);
  const EngineSetup setup = build_clue_setup(table, 4);
  EngineConfig config;
  EXPECT_THROW(ParallelEngine(EngineMode::kSlpl, config, setup),
               std::invalid_argument);
}

TEST(SlplEngine, AnswersCorrectlyAndUsesNoDred) {
  const auto table = test_table(713);
  SlplConfig slpl_config;
  slpl_config.buckets = 16;
  std::vector<std::uint64_t> uniform(16, 1);
  const auto setup = build_slpl_setup(table, uniform, slpl_config);
  EngineConfig config;
  ParallelEngine engine(EngineMode::kSlpl, config, setup);
  workload::TrafficConfig traffic_config;
  traffic_config.seed = 714;
  std::vector<Prefix> prefixes;
  for (const auto& route : table) prefixes.push_back(route.prefix);
  workload::TrafficGenerator traffic(prefixes, traffic_config);
  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, 40'000);
  EXPECT_EQ(metrics.dred_lookups, 0u);
  EXPECT_EQ(metrics.dred_fills, 0u);
  EXPECT_EQ(metrics.packets_completed + metrics.packets_dropped, 40'000u);
  EXPECT_GT(metrics.speedup(config.service_clocks), 2.0);
}

TEST(SlplEngine, CollapsesWhenTrafficShiftsButClueDoesNot) {
  const auto table = test_table(715, 8'000);
  std::vector<Prefix> prefixes;
  for (const auto& route : table) prefixes.push_back(route.prefix);

  // Train SLPL on seed A.
  const auto boundaries = partition::even_partition(table, 32).boundaries;
  workload::TrafficConfig stable;
  stable.seed = 716;
  stable.zipf_skew = 1.1;
  stable.cluster_locality = 0.9;
  workload::TrafficGenerator probe(prefixes, stable);
  const auto load = measure_bucket_load(
      boundaries, [&probe] { return probe.next(); }, 100'000);
  SlplConfig slpl_config;
  slpl_config.buckets = 32;
  const auto slpl = build_slpl_setup(table, load, slpl_config);

  const auto speedup = [&](EngineMode mode, const EngineSetup& setup,
                           std::uint64_t seed) {
    EngineConfig config;
    config.dred_capacity = 512;
    ParallelEngine engine(mode, config, setup);
    workload::TrafficConfig traffic_config = stable;
    traffic_config.seed = seed;
    workload::TrafficGenerator traffic(prefixes, traffic_config);
    return engine.run([&traffic] { return traffic.next(); }, 120'000)
        .speedup(config.service_clocks);
  };

  // CLUE setup: plain 4-way even partition of the same table.
  const EngineSetup clue_setup = build_clue_setup(table, 4);

  const double slpl_stable = speedup(EngineMode::kSlpl, slpl, 716);
  const double slpl_shifted = speedup(EngineMode::kSlpl, slpl, 999);
  const double clue_shifted = speedup(EngineMode::kClue, clue_setup, 999);
  EXPECT_GT(slpl_stable, slpl_shifted + 0.3)
      << "static redundancy should degrade when traffic shifts";
  EXPECT_GT(clue_shifted, slpl_shifted)
      << "dynamic redundancy should beat static on shifted traffic";
}

}  // namespace
}  // namespace clue::engine
