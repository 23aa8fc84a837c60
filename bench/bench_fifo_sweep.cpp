// Design-space sweep the paper fixes at one point (Fig. 15 uses
// FIFO 256): how deep do the per-chip FIFOs need to be?
//
// Deeper FIFOs absorb bursts before diverting (fewer DRed lookups) but
// add queueing delay and reorder-buffer pressure; shallower FIFOs
// divert earlier and leaning harder on the DReds. The sweep shows the
// throughput/latency/reorder trade-off under the worst-case mapping.
#include <iostream>

#include "bench_util.hpp"
#include "metrics_out.hpp"
#include "stats/stats.hpp"
#include "workload/traffic_gen.hpp"

int main() {
  using clue::stats::fixed;
  using clue::stats::percent;

  constexpr std::size_t kTcams = 4;
  constexpr std::size_t kPackets = 250'000;

  clue::workload::RibConfig rib_config;
  rib_config.table_size = 60'000;
  rib_config.seed = 2401;
  const auto fib = clue::workload::generate_rib(rib_config);
  const auto table = clue::onrtc::compress(fib);
  const auto setup = clue::engine::build_clue_setup(table, kTcams);
  const auto hot = clue::bench::prefixes_of(setup.tcam_routes[0]);

  std::cout << "=== FIFO depth sweep (worst-case traffic, DRed 1024) ===\n\n";
  clue::stats::TablePrinter out({"FIFO", "Speedup", "HitRate", "Diverted",
                                 "ReorderMax", "MeanHold(clk)"});
  for (const std::size_t fifo : {4, 16, 64, 256, 1024}) {
    clue::engine::EngineConfig config;
    config.tcam_count = kTcams;
    config.fifo_depth = fifo;
    config.track_reorder = true;
    clue::engine::ParallelEngine engine(clue::engine::EngineMode::kClue,
                                        config, setup);
    clue::workload::TrafficConfig traffic_config;
    traffic_config.seed = 2402;
    traffic_config.zipf_skew = 1.1;
    clue::workload::TrafficGenerator traffic(hot, traffic_config);
    const auto metrics =
        engine.run([&traffic] { return traffic.next(); }, kPackets);
    out.add_row({std::to_string(fifo),
                 fixed(metrics.speedup(config.service_clocks), 3),
                 percent(metrics.dred_hit_rate()),
                 percent(static_cast<double>(metrics.dred_lookups) /
                         static_cast<double>(metrics.packets_offered)),
                 std::to_string(metrics.reorder_max_occupancy),
                 fixed(metrics.reorder_mean_hold_clocks, 1)});
  }
  out.print(std::cout);
  clue::bench::export_table("fifo_sweep", out);
  std::cout << "\nExpected shape: throughput is insensitive once the FIFO\n"
               "covers a few service times; reorder-buffer pressure grows\n"
               "with depth (longer home queues let diverted packets overtake\n"
               "by more) — the paper's 256 sits on the flat part.\n";
  return 0;
}
