// The paper's headline claims as automated regressions. Each test names
// the claim it guards; sizes are scaled down so the whole file runs in
// seconds (the full-scale numbers live in bench_output.txt /
// EXPERIMENTS.md).
#include <gtest/gtest.h>

#include "engine/dred.hpp"
#include "engine/parallel_engine.hpp"
#include "engine/slpl_setup.hpp"
#include "netbase/rng.hpp"
#include "onrtc/onrtc.hpp"
#include "partition/partition.hpp"
#include "system/clpl_system.hpp"
#include "system/clue_system.hpp"
#include "workload/rib_gen.hpp"
#include "workload/traffic_gen.hpp"
#include "workload/update_gen.hpp"

namespace clue {
namespace {

using netbase::Prefix;

// "The compressed prefix number is 71% of the original in average."
TEST(PaperClaims, CompressionNearSeventyOnePercent) {
  workload::RibConfig config;
  config.table_size = 100'000;
  config.seed = 101;  // rrc01's seed
  const auto fib = workload::generate_rib(config);
  const auto ratio = onrtc::compress_with_stats(fib).stats.ratio();
  // At 100K (quarter scale) the generator sits slightly below the
  // full-scale calibration point; accept a 60-78% band.
  EXPECT_GT(ratio, 0.60);
  EXPECT_LT(ratio, 0.78);
}

// "TCAM partitions can be split exactly evenly without redundancy."
TEST(PaperClaims, EvenPartitionNoRedundancy) {
  workload::RibConfig config;
  config.table_size = 20'000;
  config.seed = 102;
  const auto table = onrtc::compress(workload::generate_rib(config));
  for (const std::size_t n : {4, 8, 32}) {
    const auto result = partition::even_partition(table, n);
    EXPECT_LE(result.max_bucket() - result.min_bucket(), 1u);
    EXPECT_EQ(result.redundancy, 0u);
  }
}

// "The priority encoder is no longer needed" — at most one match line
// rises on an ONRTC table, in any slot order.
TEST(PaperClaims, NoPriorityEncoderNeeded) {
  workload::RibConfig config;
  config.table_size = 5'000;
  config.seed = 103;
  const auto fib = workload::generate_rib(config);
  trie::BinaryTrie image;
  for (const auto& route : onrtc::compress(fib)) {
    image.insert(route.prefix, route.next_hop);
  }
  netbase::Pcg32 rng(104);
  for (int probe = 0; probe < 5'000; ++probe) {
    const netbase::Ipv4Address address(rng.next());
    std::size_t matches = 0;
    image.for_each_match(address, [&matches](const netbase::Route&) {
      ++matches;
    });
    ASSERT_LE(matches, 1u);
  }
}

// "In the worst case t = (N-1)h + 1" (eq. 5) — measured speedup must sit
// on the line within a small tolerance.
TEST(PaperClaims, SpeedupLawHolds) {
  workload::RibConfig rib_config;
  rib_config.table_size = 20'000;
  rib_config.seed = 105;
  const auto table = onrtc::compress(workload::generate_rib(rib_config));
  const auto setup = engine::build_clue_setup(table, 4);

  for (const std::size_t dred : {64, 1024}) {
    engine::EngineConfig config;
    config.dred_capacity = dred;
    engine::ParallelEngine engine(engine::EngineMode::kClue, config, setup);
    workload::TrafficConfig traffic_config;
    traffic_config.seed = 106;
    traffic_config.zipf_skew = 1.1;
    std::vector<Prefix> hot;
    for (const auto& route : setup.tcam_routes[0]) hot.push_back(route.prefix);
    workload::TrafficGenerator traffic(hot, traffic_config);
    const auto metrics =
        engine.run([&traffic] { return traffic.next(); }, 80'000);
    const double h = metrics.dred_hit_rate();
    const double t = metrics.speedup(config.service_clocks);
    EXPECT_NEAR(t, 3.0 * h + 1.0, 0.05) << "dred " << dred;
  }
}

// "DRed i doesn't store TCAM i's prefixes ... 1/4 TCAM space can be
// saved when using four TCAMs" — the exclusion rule, enforced live.
TEST(PaperClaims, DredExclusionRule) {
  workload::RibConfig rib_config;
  rib_config.table_size = 10'000;
  rib_config.seed = 107;
  const auto table = onrtc::compress(workload::generate_rib(rib_config));
  const auto setup = engine::build_clue_setup(table, 4);
  engine::EngineConfig config;
  engine::ParallelEngine engine(engine::EngineMode::kClue, config, setup);
  workload::TrafficConfig traffic_config;
  traffic_config.seed = 108;
  std::vector<Prefix> prefixes;
  for (const auto& route : table) prefixes.push_back(route.prefix);
  workload::TrafficGenerator traffic(prefixes, traffic_config);
  engine.run([&traffic] { return traffic.next(); }, 30'000);
  for (std::size_t chip = 0; chip < 4; ++chip) {
    for (const auto& cached : engine.dred(chip).contents()) {
      ASSERT_NE(engine.indexing().tcam_of(cached.range_low()), chip);
    }
  }
}

// "The interactions between control plane and data plane caused by DRed
// update can be totally avoided."
TEST(PaperClaims, NoControlPlaneInteractionsInClueMode) {
  workload::RibConfig rib_config;
  rib_config.table_size = 5'000;
  rib_config.seed = 109;
  const auto table = onrtc::compress(workload::generate_rib(rib_config));
  const auto setup = engine::build_clue_setup(table, 4);
  engine::EngineConfig config;
  engine::ParallelEngine engine(engine::EngineMode::kClue, config, setup);
  workload::TrafficConfig traffic_config;
  traffic_config.seed = 110;
  std::vector<Prefix> prefixes;
  for (const auto& route : table) prefixes.push_back(route.prefix);
  workload::TrafficGenerator traffic(prefixes, traffic_config);
  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, 20'000);
  EXPECT_EQ(metrics.control_plane_interactions, 0u);
}

// "CLUE needs one shift at most to handle an update message" — per
// TCAM operation, on the order-free layout.
TEST(PaperClaims, OneShiftPerTcamOperation) {
  tcam::ClueUpdater updater(1024);
  netbase::Pcg32 rng(111);
  std::vector<Prefix> stored;
  for (int i = 0; i < 2'000; ++i) {
    const Prefix prefix(netbase::Ipv4Address(rng.next()), 24);
    if (rng.chance(0.6) && updater.size() < 1000) {
      const auto before = updater.chip().stats().moves;
      updater.insert(tcam::TcamEntry{prefix, netbase::make_next_hop(1)});
      EXPECT_LE(updater.chip().stats().moves - before, 1u);
      stored.push_back(prefix);
    } else if (!stored.empty()) {
      const auto victim = stored.back();
      stored.pop_back();
      const auto before = updater.chip().stats().moves;
      updater.erase(victim);
      EXPECT_LE(updater.chip().stats().moves - before, 1u);
    }
  }
}

// "Caching prefixes is more efficient [than caching destination
// addresses]" (§III-C) — at equal capacity, one LRU store holding ONRTC
// regions hits far more often than the same store holding /32 host
// routes, both demand-filled from the same Zipf trace. Every hit must
// also answer as the FIB does.
TEST(PaperClaims, PrefixCachingBeatsAddressCaching) {
  workload::RibConfig rib_config;
  rib_config.table_size = 10'000;
  rib_config.seed = 114;
  const auto fib = workload::generate_rib(rib_config);
  const auto table = onrtc::compress(fib);
  trie::BinaryTrie disjoint;
  std::vector<Prefix> prefixes;
  for (const auto& route : table) {
    disjoint.insert(route.prefix, route.next_hop);
    prefixes.push_back(route.prefix);
  }
  workload::TrafficConfig traffic_config;
  traffic_config.seed = 115;
  traffic_config.zipf_skew = 1.05;
  workload::TrafficGenerator traffic(prefixes, traffic_config);

  constexpr std::size_t kCapacity = 512;
  engine::DredStore addresses(kCapacity);
  engine::DredStore regions(kCapacity);
  for (const auto address : traffic.generate(50'000)) {
    const netbase::NextHop truth = fib.lookup(address);
    if (const auto hop = addresses.lookup(address)) {
      ASSERT_EQ(*hop, truth);
    } else {
      addresses.insert(
          netbase::Route{Prefix(address, Prefix::kMaxLength), truth});
    }
    if (const auto hop = regions.lookup(address)) {
      ASSERT_EQ(*hop, truth);
    } else if (const auto matched = disjoint.lookup_route(address)) {
      regions.insert(*matched);
    }
  }
  EXPECT_TRUE(addresses.invariants_ok());
  EXPECT_TRUE(regions.invariants_ok());
  EXPECT_EQ(addresses.size(), kCapacity);
  const double address_hits = addresses.stats().hit_rate();
  const double region_hits = regions.stats().hit_rate();
  EXPECT_GT(region_hits, 0.3);
  EXPECT_GT(region_hits, 10.0 * address_hits)
      << "regions " << region_hits << " vs /32 hosts " << address_hits;
}

// "TTF2+TTF3 of CLUE is [a small fraction] of CLPL" — the data-plane
// update advantage, end to end through both schemes on one chip each.
TEST(PaperClaims, DataPlaneUpdateAdvantage) {
  workload::RibConfig rib_config;
  rib_config.table_size = 10'000;
  rib_config.seed = 112;
  const auto fib = workload::generate_rib(rib_config);
  system::ClueSystem clue_system(fib, {.tcam_count = 1});
  system::ClplSystem clpl_system(fib, {.tcam_count = 1});
  workload::UpdateConfig update_config;
  update_config.seed = 113;
  workload::UpdateGenerator clue_updates(fib, update_config);
  workload::UpdateGenerator clpl_updates(fib, update_config);
  double clue_dp = 0;
  double clpl_dp = 0;
  for (int i = 0; i < 2'000; ++i) {
    clue_dp += clue_system.apply(clue_updates.next()).data_plane_ns();
    clpl_dp += clpl_system.apply(clpl_updates.next()).ttf.data_plane_ns();
  }
  EXPECT_LT(clue_dp, 0.3 * clpl_dp);
}

}  // namespace
}  // namespace clue
