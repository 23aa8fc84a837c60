// Parameterised sweeps of the parallel engine: conservation laws and
// the speedup bound must hold for every configuration, not just the
// paper's 4-TCAM/4-clock/256-FIFO point.
#include <gtest/gtest.h>

#include <tuple>

#include "engine/parallel_engine.hpp"
#include "engine/slpl_setup.hpp"
#include "onrtc/onrtc.hpp"
#include "workload/rib_gen.hpp"
#include "workload/traffic_gen.hpp"

namespace clue::engine {
namespace {

using netbase::Prefix;

EngineSetup make_setup(const std::vector<netbase::Route>& table,
                       std::size_t tcams) {
  return build_clue_setup(table, tcams);
}

// (tcams, fifo_depth, service_clocks, dred_capacity)
using Config = std::tuple<std::size_t, std::size_t, std::size_t, std::size_t>;

class EngineSweep : public ::testing::TestWithParam<Config> {
 protected:
  static const std::vector<netbase::Route>& table() {
    static const auto* kTable = [] {
      workload::RibConfig config;
      config.table_size = 3'000;
      config.seed = 777;
      return new std::vector<netbase::Route>(
          onrtc::compress(workload::generate_rib(config)));
    }();
    return *kTable;
  }
};

TEST_P(EngineSweep, ConservationAndBounds) {
  const auto [tcams, fifo, service, dred] = GetParam();
  EngineConfig config;
  config.tcam_count = tcams;
  config.fifo_depth = fifo;
  config.service_clocks = service;
  config.dred_capacity = dred;
  config.track_reorder = true;
  ParallelEngine engine(EngineMode::kClue, config, make_setup(table(), tcams));

  workload::TrafficConfig traffic_config;
  traffic_config.seed = 778;
  traffic_config.zipf_skew = 1.0;
  std::vector<Prefix> prefixes;
  for (const auto& route : table()) prefixes.push_back(route.prefix);
  workload::TrafficGenerator traffic(prefixes, traffic_config);

  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, 20'000);

  // Conservation: every offered packet either completes or is dropped.
  EXPECT_EQ(metrics.packets_completed + metrics.packets_dropped,
            metrics.packets_offered);
  // Per-TCAM accounting adds up.
  std::uint64_t lookups = 0;
  std::uint64_t home = 0;
  for (std::size_t i = 0; i < tcams; ++i) {
    lookups += metrics.per_tcam_lookups[i];
    home += metrics.per_tcam_home[i];
  }
  EXPECT_EQ(lookups, home + metrics.dred_lookups);
  EXPECT_EQ(metrics.packets_completed, home + metrics.dred_hits);
  // Speedup can never exceed the chip count and never fall below the
  // single-chip floor while at least one chip is saturated.
  const double t = metrics.speedup(service);
  EXPECT_LE(t, static_cast<double>(tcams) + 1e-9);
  EXPECT_GT(t, 0.0);
  // The worst-case bound holds whenever diversions happened.
  if (metrics.dred_lookups > 1000) {
    EXPECT_GE(t, (static_cast<double>(tcams) - 1.0) *
                         metrics.dred_hit_rate() * 0.9);
  }
  // Reorder tracking: everything accepted was eventually released, so
  // occupancy statistics are well-formed.
  EXPECT_GE(metrics.reorder_max_occupancy, 1u);
  EXPECT_GE(metrics.reorder_mean_hold_clocks, 0.0);
}

std::string sweep_name(const ::testing::TestParamInfo<Config>& info) {
  const auto [tcams, fifo, service, dred] = info.param;
  return "t" + std::to_string(tcams) + "_f" + std::to_string(fifo) + "_s" +
         std::to_string(service) + "_d" + std::to_string(dred);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineSweep,
    ::testing::Values(Config{2, 16, 2, 64}, Config{2, 256, 4, 1024},
                      Config{4, 16, 4, 64}, Config{4, 256, 4, 1024},
                      Config{4, 64, 8, 256}, Config{8, 256, 4, 512},
                      Config{8, 32, 2, 128}),
    sweep_name);

TEST(EngineReorder, TrackingReportsOccupancyAndHold) {
  workload::RibConfig rib_config;
  rib_config.table_size = 2'000;
  rib_config.seed = 779;
  const auto table = onrtc::compress(workload::generate_rib(rib_config));
  EngineConfig config;
  config.fifo_depth = 8;  // force diversions -> real reordering
  config.track_reorder = true;
  ParallelEngine engine(EngineMode::kClue, config, make_setup(table, 4));
  workload::TrafficConfig traffic_config;
  traffic_config.seed = 780;
  traffic_config.zipf_skew = 1.3;
  std::vector<Prefix> hot;
  for (std::size_t i = 0; i < table.size() / 4; ++i) {
    hot.push_back(table[i].prefix);
  }
  workload::TrafficGenerator traffic(hot, traffic_config);
  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, 30'000);
  EXPECT_GT(metrics.out_of_order_completions, 0u);
  EXPECT_GT(metrics.reorder_max_occupancy, 1u);
  EXPECT_GT(metrics.reorder_mean_hold_clocks, 0.0);
}

TEST(EngineUpdateStalls, StallsAreCountedAndThrottleThroughput) {
  workload::RibConfig rib_config;
  rib_config.table_size = 2'000;
  rib_config.seed = 781;
  const auto table = onrtc::compress(workload::generate_rib(rib_config));
  std::vector<Prefix> prefixes;
  for (const auto& route : table) prefixes.push_back(route.prefix);

  const auto speedup_with = [&](std::size_t interval, std::size_t stall) {
    EngineConfig config;
    config.update_interval_clocks = interval;
    config.update_stall_clocks = stall;
    ParallelEngine engine(EngineMode::kClue, config, make_setup(table, 4));
    workload::TrafficConfig traffic_config;
    traffic_config.seed = 782;
    workload::TrafficGenerator traffic(prefixes, traffic_config);
    const auto metrics =
        engine.run([&traffic] { return traffic.next(); }, 30'000);
    if (interval != 0) {
      EXPECT_GT(metrics.update_stalls, 0u);
    }
    return metrics.speedup(config.service_clocks);
  };

  const double clean = speedup_with(0, 1);
  const double rare = speedup_with(5000, 15);
  const double hot = speedup_with(8, 15);
  // The paper's premise 1: rare updates are free.
  EXPECT_NEAR(rare, clean, 0.15);
  // Saturation-rate updates are definitely not.
  EXPECT_LT(hot, clean - 0.5);
}

}  // namespace
}  // namespace clue::engine
