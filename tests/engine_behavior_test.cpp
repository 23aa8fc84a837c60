// Behavioural invariants of the parallel engine that the paper's
// figures rest on: load balancing evens out skewed offered load
// (Fig. 15), the speedup law holds for CLPL mode too, and DRed contents
// stay within their capacity discipline under churn.
#include <gtest/gtest.h>

#include "engine/parallel_engine.hpp"
#include "engine/slpl_setup.hpp"
#include "netbase/rng.hpp"
#include "onrtc/onrtc.hpp"
#include "workload/rib_gen.hpp"
#include "workload/traffic_gen.hpp"

namespace clue::engine {
namespace {

using netbase::Prefix;

struct Fixture {
  trie::BinaryTrie fib;
  std::vector<netbase::Route> table;
  EngineSetup setup;

  explicit Fixture(std::uint64_t seed, std::size_t routes = 3'000,
                   std::size_t tcams = 4) {
    workload::RibConfig config;
    config.table_size = routes;
    config.seed = seed;
    fib = workload::generate_rib(config);
    table = onrtc::compress(fib);
    setup = engine::build_clue_setup(table, tcams);
  }

  std::vector<Prefix> prefixes_of(std::size_t chip) const {
    std::vector<Prefix> out;
    for (const auto& route : setup.tcam_routes[chip]) {
      out.push_back(route.prefix);
    }
    return out;
  }
};

TEST(EngineBehavior, SkewedOfferedLoadProcessesEvenly) {
  // Fig. 15 as an invariant: all traffic homed at chip 0, yet under
  // saturation every chip ends up doing ~1/4 of the lookups.
  Fixture fixture(601);
  EngineConfig config;
  ParallelEngine engine(EngineMode::kClue, config, fixture.setup);
  workload::TrafficConfig traffic_config;
  traffic_config.seed = 602;
  traffic_config.zipf_skew = 1.1;
  workload::TrafficGenerator traffic(fixture.prefixes_of(0), traffic_config);
  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, 120'000);
  std::uint64_t total = 0;
  for (const auto count : metrics.per_tcam_lookups) total += count;
  for (std::size_t chip = 0; chip < 4; ++chip) {
    const double share = static_cast<double>(metrics.per_tcam_lookups[chip]) /
                         static_cast<double>(total);
    EXPECT_NEAR(share, 0.25, 0.02) << "chip " << chip;
  }
}

TEST(EngineBehavior, ClplModeAlsoObeysSpeedupLaw) {
  Fixture fixture(603);
  EngineConfig config;
  config.dred_capacity = 512;
  ParallelEngine engine(EngineMode::kClpl, config, fixture.setup,
                        &fixture.fib);
  workload::TrafficConfig traffic_config;
  traffic_config.seed = 604;
  traffic_config.zipf_skew = 1.1;
  workload::TrafficGenerator traffic(fixture.prefixes_of(0), traffic_config);
  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, 80'000);
  const double h = metrics.dred_hit_rate();
  const double t = metrics.speedup(config.service_clocks);
  EXPECT_GT(metrics.dred_lookups, 1000u);
  EXPECT_GE(t, 3.0 * h + 1.0 - 0.1);
}

TEST(EngineBehavior, LargerDredNeverHurtsHitRate) {
  Fixture fixture(605);
  double previous = -1.0;
  for (const std::size_t size : {32, 128, 512, 2048}) {
    EngineConfig config;
    config.dred_capacity = size;
    ParallelEngine engine(EngineMode::kClue, config, fixture.setup);
    workload::TrafficConfig traffic_config;
    traffic_config.seed = 606;
    traffic_config.zipf_skew = 1.1;
    workload::TrafficGenerator traffic(fixture.prefixes_of(0),
                                       traffic_config);
    const auto metrics =
        engine.run([&traffic] { return traffic.next(); }, 60'000);
    // Monotone non-decreasing (plateaus once the working set fits).
    EXPECT_GE(metrics.dred_hit_rate(), previous - 1e-9) << "size " << size;
    previous = metrics.dred_hit_rate();
  }
}

TEST(EngineBehavior, DredsNeverExceedCapacity) {
  Fixture fixture(607);
  EngineConfig config;
  config.dred_capacity = 64;
  ParallelEngine engine(EngineMode::kClue, config, fixture.setup);
  workload::TrafficConfig traffic_config;
  traffic_config.seed = 608;
  workload::TrafficGenerator traffic(fixture.prefixes_of(0), traffic_config);
  engine.run([&traffic] { return traffic.next(); }, 40'000);
  for (std::size_t chip = 0; chip < 4; ++chip) {
    EXPECT_LE(engine.dred(chip).size(), 64u);
  }
}

TEST(EngineBehavior, TwoChipsStillBalance) {
  Fixture fixture(609, 2'000, 2);
  EngineConfig config;
  config.tcam_count = 2;
  ParallelEngine engine(EngineMode::kClue, config, fixture.setup);
  workload::TrafficConfig traffic_config;
  traffic_config.seed = 610;
  traffic_config.zipf_skew = 1.1;
  workload::TrafficGenerator traffic(fixture.prefixes_of(0), traffic_config);
  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, 60'000);
  const double h = metrics.dred_hit_rate();
  const double t = metrics.speedup(config.service_clocks);
  // N = 2: t = h + 1.
  EXPECT_NEAR(t, h + 1.0, 0.1);
}

TEST(EngineBehavior, UniformTrafficNeedsAlmostNoDiversion) {
  Fixture fixture(611);
  EngineConfig config;
  ParallelEngine engine(EngineMode::kClue, config, fixture.setup);
  // Perfectly uniform traffic over all partitions, below saturation is
  // impossible (arrival = capacity), but diversions should stay a small
  // fraction of lookups.
  workload::TrafficConfig traffic_config;
  traffic_config.seed = 612;
  traffic_config.zipf_skew = 0.0;  // uniform popularity
  std::vector<Prefix> prefixes;
  for (const auto& route : fixture.table) prefixes.push_back(route.prefix);
  workload::TrafficGenerator traffic(prefixes, traffic_config);
  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, 60'000);
  EXPECT_LT(static_cast<double>(metrics.dred_lookups) /
                static_cast<double>(metrics.packets_offered),
            0.35);
  EXPECT_GT(metrics.speedup(config.service_clocks), 3.4);
}

}  // namespace
}  // namespace clue::engine
