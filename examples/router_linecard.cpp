// A backbone-router linecard, end to end (the paper's Fig. 1 system).
//
// Builds a realistic 100K-route FIB, compresses it with ONRTC, splits it
// evenly over four simulated TCAM chips, and drives the parallel lookup
// engine with bursty Zipf traffic — printing throughput, per-chip load,
// DRed behaviour and reorder statistics.
//
//   $ ./examples/router_linecard
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

  // --- Control plane: build and compress the FIB. -------------------------
  clue::workload::RibConfig rib_config;
  rib_config.table_size = 100'000;
  rib_config.seed = 404;
  const auto fib = clue::workload::generate_rib(rib_config);
  const auto table = clue::onrtc::compress(fib);
  std::cout << "FIB: " << fib.size() << " routes -> " << table.size()
            << " disjoint TCAM entries ("
            << percent(static_cast<double>(table.size()) /
                       static_cast<double>(fib.size()))
            << ")\n";

  // --- Partition over 4 chips, build the engine. --------------------------
  constexpr std::size_t kTcams = 4;
  const auto setup = clue::engine::build_clue_setup(table, kTcams);
  for (std::size_t i = 0; i < kTcams; ++i) {
    std::cout << "  TCAM " << i + 1 << ": "
              << setup.tcam_routes[i].size() << " entries, range "
              << setup.tcam_routes[i].front().prefix.range_low().to_string()
              << " - "
              << setup.tcam_routes[i].back().prefix.range_high().to_string()
              << "\n";
  }

  clue::engine::EngineConfig config;  // paper defaults: FIFO 256, DRed 1024
  clue::engine::ParallelEngine engine(clue::engine::EngineMode::kClue, config,
                                      setup);

  // --- Data plane: bursty traffic, one packet per clock. ------------------
  clue::workload::TrafficConfig traffic_config;
  traffic_config.seed = 405;
  traffic_config.zipf_skew = 1.1;
  traffic_config.burst_period = 50'000;  // hot set rotates mid-run
  std::vector<clue::netbase::Prefix> prefixes;
  prefixes.reserve(table.size());
  for (const auto& route : table) prefixes.push_back(route.prefix);
  clue::workload::TrafficGenerator traffic(prefixes, traffic_config);

  constexpr std::size_t kPackets = 500'000;
  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, kPackets);

  // --- Report. -------------------------------------------------------------
  std::cout << "\nRan " << metrics.clocks << " clocks, completed "
            << metrics.packets_completed << "/" << metrics.packets_offered
            << " packets (" << metrics.packets_dropped << " dropped)\n";
  std::cout << "Speedup factor: "
            << fixed(metrics.speedup(config.service_clocks), 2) << " of "
            << kTcams << " chips\n";
  std::cout << "DRed: " << metrics.dred_lookups << " diverted lookups, hit "
            << percent(metrics.dred_hit_rate()) << ", "
            << metrics.dred_fills << " fills, 0 control-plane round trips ("
            << metrics.control_plane_interactions << " observed)\n";
  std::cout << "Reorder: " << metrics.out_of_order_completions
            << " out-of-order completions, max distance "
            << metrics.max_reorder_distance << " (sequence tags, Fig. 1 step "
            << "III)\n";
  for (std::size_t i = 0; i < kTcams; ++i) {
    std::cout << "  TCAM " << i + 1 << ": "
              << metrics.per_tcam_lookups[i] << " lookups ("
              << metrics.per_tcam_home[i] << " home), busy "
              << percent(static_cast<double>(metrics.per_tcam_busy[i]) /
                         static_cast<double>(metrics.clocks))
              << "\n";
  }
  return 0;
}
