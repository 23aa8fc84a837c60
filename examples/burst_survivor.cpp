// Dynamic vs static redundancy under a traffic flash crowd.
//
// The reason CLPL/CLUE use *dynamic* redundancy at all (paper §I, §II-B):
// statically provisioned redundancy (SLPL) balances the long-term
// average, but Internet traffic is bursty — when the hot set shifts to
// one chip's partitions, only an adaptive mechanism keeps throughput up.
//
// This example runs the same engine twice: first with traffic matching
// the long-term profile, then with a flash crowd concentrated on one
// chip's address ranges, and shows the speedup staying near (N-1)h+1.
//
//   $ ./examples/burst_survivor
#include <iostream>

#include "engine/parallel_engine.hpp"
#include "engine/slpl_setup.hpp"
#include "onrtc/onrtc.hpp"
#include "stats/stats.hpp"
#include "workload/rib_gen.hpp"
#include "workload/traffic_gen.hpp"

int main() {
  using clue::stats::fixed;
  using clue::stats::percent;

  constexpr std::size_t kTcams = 4;
  constexpr std::size_t kPackets = 300'000;

  clue::workload::RibConfig rib_config;
  rib_config.table_size = 60'000;
  rib_config.seed = 600;
  const auto fib = clue::workload::generate_rib(rib_config);
  const auto table = clue::onrtc::compress(fib);
  const auto setup = clue::engine::build_clue_setup(table, kTcams);

  clue::engine::EngineConfig config;

  const auto run = [&](const char* label,
                       const std::vector<clue::netbase::Prefix>& prefixes) {
    clue::engine::ParallelEngine engine(clue::engine::EngineMode::kClue,
                                        config, setup);
    clue::workload::TrafficConfig traffic_config;
    traffic_config.seed = 601;
    traffic_config.zipf_skew = 1.1;
    clue::workload::TrafficGenerator traffic(prefixes, traffic_config);
    const auto metrics =
        engine.run([&traffic] { return traffic.next(); }, kPackets);
    const double h = metrics.dred_hit_rate();
    const double t = metrics.speedup(config.service_clocks);
    std::cout << label << ": speedup " << fixed(t, 2) << " / " << kTcams
              << ", DRed hit rate " << percent(h) << ", bound (N-1)h+1 = "
              << fixed(3.0 * h + 1.0, 2) << ", drops "
              << metrics.packets_dropped << "\n";
  };

  // Normal day: traffic spread over the whole table.
  std::vector<clue::netbase::Prefix> everywhere;
  for (const auto& route : table) everywhere.push_back(route.prefix);
  run("steady traffic      ", everywhere);

  // Flash crowd: every packet lands in TCAM 1's ranges.
  std::vector<clue::netbase::Prefix> flash;
  for (const auto& route : setup.tcam_routes[0]) flash.push_back(route.prefix);
  run("flash crowd on chip1", flash);

  std::cout << "\nEven with every packet homed at one chip, the other "
               "chips' DReds absorb the burst and the speedup stays well "
               "above 1 (the single-chip rate).\n";
  return 0;
}
