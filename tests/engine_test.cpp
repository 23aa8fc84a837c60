#include "engine/parallel_engine.hpp"

#include <gtest/gtest.h>

#include "engine/indexing_logic.hpp"
#include "engine/slpl_setup.hpp"
#include "netbase/rng.hpp"
#include "onrtc/onrtc.hpp"
#include "workload/rib_gen.hpp"
#include "workload/traffic_gen.hpp"

namespace clue::engine {
namespace {

using netbase::Ipv4Address;
using netbase::make_next_hop;
using netbase::Pcg32;
using netbase::Prefix;

// ---------------------------------------------------------------------------
// IndexingLogic

TEST(IndexingLogic, ValidatesArguments) {
  EXPECT_THROW(IndexingLogic({}, {}), std::invalid_argument);
  EXPECT_THROW(IndexingLogic({Ipv4Address(5)}, {0}), std::invalid_argument);
  EXPECT_THROW(IndexingLogic({Ipv4Address(9), Ipv4Address(3)}, {0, 1, 2}),
               std::invalid_argument);
}

TEST(IndexingLogic, SingleBucketTakesAll) {
  const IndexingLogic logic({}, {0});
  EXPECT_EQ(logic.bucket_of(Ipv4Address(0)), 0u);
  EXPECT_EQ(logic.bucket_of(Ipv4Address(~0u)), 0u);
}

TEST(IndexingLogic, BoundariesAreHalfOpen) {
  const IndexingLogic logic({Ipv4Address(100), Ipv4Address(200)}, {0, 1, 2});
  EXPECT_EQ(logic.bucket_of(Ipv4Address(99)), 0u);
  EXPECT_EQ(logic.bucket_of(Ipv4Address(100)), 1u);
  EXPECT_EQ(logic.bucket_of(Ipv4Address(199)), 1u);
  EXPECT_EQ(logic.bucket_of(Ipv4Address(200)), 2u);
}

TEST(IndexingLogic, TcamMappingApplied) {
  const IndexingLogic logic({Ipv4Address(100)}, {3, 1});
  EXPECT_EQ(logic.tcam_of(Ipv4Address(5)), 3u);
  EXPECT_EQ(logic.tcam_of(Ipv4Address(500)), 1u);
}

// ---------------------------------------------------------------------------
// Engine fixtures

struct EngineFixture {
  EngineSetup setup;
  trie::BinaryTrie full;
  std::vector<netbase::Route> table;

  explicit EngineFixture(std::size_t tcams = 4, std::size_t routes = 2000,
                         std::uint64_t seed = 1) {
    workload::RibConfig config;
    config.table_size = routes;
    config.seed = seed;
    full = workload::generate_rib(config);
    table = onrtc::compress(full);
    setup = engine::build_clue_setup(table, tcams);
  }
};

TEST(ParallelEngine, ValidatesConfiguration) {
  EngineFixture fixture;
  EngineConfig config;
  config.tcam_count = 1;
  EXPECT_THROW(
      ParallelEngine(EngineMode::kClue, config, fixture.setup),
      std::invalid_argument);
  config.tcam_count = 4;
  EXPECT_THROW(ParallelEngine(EngineMode::kClpl, config, fixture.setup,
                              nullptr),
               std::invalid_argument);
}

TEST(ParallelEngine, CompletesAllPacketsUnderUniformTraffic) {
  EngineFixture fixture;
  EngineConfig config;
  ParallelEngine engine(EngineMode::kClue, config, fixture.setup);
  workload::TrafficConfig traffic_config;
  traffic_config.zipf_skew = 0.8;
  std::vector<Prefix> prefixes;
  for (const auto& route : fixture.table) prefixes.push_back(route.prefix);
  workload::TrafficGenerator traffic(prefixes, traffic_config);
  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, 20'000);
  EXPECT_EQ(metrics.packets_offered, 20'000u);
  EXPECT_EQ(metrics.packets_completed + metrics.packets_dropped, 20'000u);
  EXPECT_GT(metrics.packets_completed, 19'000u);
  // 4 TCAMs at 4 clocks each, 1 arrival/clock: speedup near 4.
  EXPECT_GT(metrics.speedup(config.service_clocks), 3.0);
}

TEST(ParallelEngine, SpeedupBoundedByTcamCount) {
  EngineFixture fixture;
  EngineConfig config;
  ParallelEngine engine(EngineMode::kClue, config, fixture.setup);
  Pcg32 rng(5);
  std::vector<Prefix> prefixes;
  for (const auto& route : fixture.table) prefixes.push_back(route.prefix);
  workload::TrafficGenerator traffic(prefixes, workload::TrafficConfig{});
  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, 10'000);
  EXPECT_LE(metrics.speedup(config.service_clocks),
            static_cast<double>(config.tcam_count) + 1e-9);
}

TEST(ParallelEngine, WorstCaseSpeedupRespectsTheoreticalBound) {
  // All traffic homed at one TCAM: t >= (N-1)h + 1 (paper eq. 5).
  EngineFixture fixture(4, 4000, 3);
  EngineConfig config;
  config.dred_capacity = 512;
  ParallelEngine engine(EngineMode::kClue, config, fixture.setup);

  // Traffic restricted to TCAM 0's routes.
  std::vector<Prefix> hot;
  for (const auto& route : fixture.setup.tcam_routes[0]) {
    hot.push_back(route.prefix);
  }
  workload::TrafficConfig traffic_config;
  traffic_config.zipf_skew = 1.1;
  workload::TrafficGenerator traffic(hot, traffic_config);
  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, 60'000);
  const double h = metrics.dred_hit_rate();
  const double t = metrics.speedup(config.service_clocks);
  EXPECT_GT(metrics.dred_lookups, 0u);
  EXPECT_GE(t, 3.0 * h + 1.0 - 0.15) << "h=" << h << " t=" << t;
}

TEST(ParallelEngine, ClueModeNeverFillsHomeDred) {
  EngineFixture fixture(4, 1500, 7);
  EngineConfig config;
  ParallelEngine engine(EngineMode::kClue, config, fixture.setup);
  std::vector<Prefix> prefixes;
  for (const auto& route : fixture.table) prefixes.push_back(route.prefix);
  workload::TrafficGenerator traffic(prefixes, workload::TrafficConfig{});
  engine.run([&traffic] { return traffic.next(); }, 15'000);
  // No DRed may contain a prefix homed at its own TCAM.
  for (std::size_t i = 0; i < 4; ++i) {
    for (const auto& cached : engine.dred(i).contents()) {
      EXPECT_NE(engine.indexing().tcam_of(cached.range_low()), i)
          << "DRed " << i << " caches its own " << cached.to_string();
    }
  }
}

TEST(ParallelEngine, ClplModeFillsAllCachesViaControlPlane) {
  EngineFixture fixture(4, 1500, 9);
  EngineConfig config;
  ParallelEngine engine(EngineMode::kClpl, config, fixture.setup,
                        &fixture.full);
  std::vector<Prefix> prefixes;
  for (const auto& route : fixture.table) prefixes.push_back(route.prefix);
  workload::TrafficGenerator traffic(prefixes, workload::TrafficConfig{});
  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, 10'000);
  EXPECT_GT(metrics.control_plane_interactions, 0u);
  EXPECT_GT(metrics.control_plane_sram_accesses,
            metrics.control_plane_interactions);
  // Fills go to all 4 caches: fills = 4 × interactions (when matched).
  EXPECT_EQ(metrics.dred_fills % 4, 0u);
}

TEST(ParallelEngine, ClueModeHasNoControlPlaneInteractions) {
  EngineFixture fixture;
  EngineConfig config;
  ParallelEngine engine(EngineMode::kClue, config, fixture.setup);
  std::vector<Prefix> prefixes;
  for (const auto& route : fixture.table) prefixes.push_back(route.prefix);
  workload::TrafficGenerator traffic(prefixes, workload::TrafficConfig{});
  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, 10'000);
  EXPECT_EQ(metrics.control_plane_interactions, 0u);
  EXPECT_EQ(metrics.control_plane_sram_accesses, 0u);
}

TEST(ParallelEngine, DrainsCompletely) {
  EngineFixture fixture;
  EngineConfig config;
  ParallelEngine engine(EngineMode::kClue, config, fixture.setup);
  std::vector<Prefix> prefixes;
  for (const auto& route : fixture.table) prefixes.push_back(route.prefix);
  workload::TrafficGenerator traffic(prefixes, workload::TrafficConfig{});
  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, 1'000);
  EXPECT_EQ(metrics.packets_completed + metrics.packets_dropped,
            metrics.packets_offered);
  // Drain adds a bounded tail beyond the arrival window.
  EXPECT_LT(metrics.clocks, 1'000u + 5'000u);
}

TEST(ParallelEngine, ReorderMetricsTrackDiversions) {
  EngineFixture fixture(4, 3000, 15);
  EngineConfig config;
  config.fifo_depth = 8;  // tiny FIFOs force diversions and reorder
  ParallelEngine engine(EngineMode::kClue, config, fixture.setup);
  std::vector<Prefix> hot;
  for (const auto& route : fixture.setup.tcam_routes[0]) {
    hot.push_back(route.prefix);
  }
  workload::TrafficGenerator traffic(hot, workload::TrafficConfig{});
  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, 20'000);
  EXPECT_GT(metrics.out_of_order_completions, 0u);
  EXPECT_GT(metrics.max_reorder_distance, 0u);
}

TEST(ParallelEngine, EraseFromDredsSynchronisesUpdates) {
  EngineFixture fixture;
  EngineConfig config;
  ParallelEngine engine(EngineMode::kClue, config, fixture.setup);
  std::vector<Prefix> prefixes;
  for (const auto& route : fixture.table) prefixes.push_back(route.prefix);
  workload::TrafficGenerator traffic(prefixes, workload::TrafficConfig{});
  engine.run([&traffic] { return traffic.next(); }, 15'000);
  // Find a cached prefix and erase it everywhere.
  Prefix victim;
  bool found = false;
  for (std::size_t i = 0; i < 4 && !found; ++i) {
    const auto contents = engine.dred(i).contents();
    if (!contents.empty()) {
      victim = contents.front();
      found = true;
    }
  }
  ASSERT_TRUE(found);
  EXPECT_GE(engine.erase_from_dreds(victim), 1u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(engine.dred(i).contains(victim));
  }
}

TEST(ParallelEngine, PerTcamMetricsAddUp) {
  EngineFixture fixture;
  EngineConfig config;
  ParallelEngine engine(EngineMode::kClue, config, fixture.setup);
  std::vector<Prefix> prefixes;
  for (const auto& route : fixture.table) prefixes.push_back(route.prefix);
  workload::TrafficGenerator traffic(prefixes, workload::TrafficConfig{});
  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, 8'000);
  std::uint64_t lookups = 0;
  std::uint64_t home = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    lookups += metrics.per_tcam_lookups[i];
    home += metrics.per_tcam_home[i];
  }
  EXPECT_EQ(lookups, home + metrics.dred_lookups);
  EXPECT_EQ(metrics.packets_completed, home + metrics.dred_hits);
}

}  // namespace
}  // namespace clue::engine
