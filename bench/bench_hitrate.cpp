// Reproduces Figure 17: DRed hit rate vs DRed size, CLUE vs CLPL.
//
// Two effects separate the curves at equal per-chip DRed size:
//  1. CLUE's exclusion rule (DRed i never stores chip i's prefixes)
//     stops fills that could never be hit from consuming capacity;
//  2. CLUE caches the matched *disjoint region* directly, while CLPL
//     caches RRC-ME minimal expansions — longer prefixes covering less
//     address space, so each CLPL entry earns fewer hits.
// Paper: CLUE's curve dominates CLPL's everywhere; with 4 chips CLUE
// needs ~3/4 of CLPL's redundancy for equal hit rate.
#include <iostream>

#include "bench_util.hpp"
#include "metrics_out.hpp"
#include "stats/stats.hpp"
#include "workload/traffic_gen.hpp"

int main() {
  using clue::stats::fixed;
  using clue::stats::percent;

  constexpr std::size_t kTcams = 4;
  constexpr std::size_t kPackets = 300'000;

  clue::workload::RibConfig rib_config;
  rib_config.table_size = 60'000;
  rib_config.seed = 1701;
  const auto fib = clue::workload::generate_rib(rib_config);
  const auto table = clue::onrtc::compress(fib);
  const auto clue_setup = clue::engine::build_clue_setup(table, kTcams);
  const auto clpl_setup = clue::bench::clpl_setup(fib, table, kTcams);
  const auto hot = clue::bench::prefixes_of(clue_setup.tcam_routes[0]);

  std::cout << "=== Figure 17: hit rate vs DRed size (worst-case traffic) "
               "===\n\n";
  std::vector<std::vector<std::string>> csv_rows;
  clue::stats::TablePrinter out(
      {"DRedSize", "CLUE hit", "CLPL hit", "CLUE speedup", "CLPL speedup"});
  for (const std::size_t dred_size : {16, 32, 64, 128, 256, 512, 1024, 2048}) {
    double hit[2];
    double speed[2];
    for (int mode = 0; mode < 2; ++mode) {
      clue::engine::EngineConfig config;
      config.tcam_count = kTcams;
      config.dred_capacity = dred_size;
      clue::engine::ParallelEngine engine(
          mode == 0 ? clue::engine::EngineMode::kClue
                    : clue::engine::EngineMode::kClpl,
          config, mode == 0 ? clue_setup : clpl_setup,
          mode == 0 ? nullptr : &fib);
      clue::workload::TrafficConfig traffic_config;
      traffic_config.seed = 1702;
      traffic_config.zipf_skew = 1.1;
      clue::workload::TrafficGenerator traffic(hot, traffic_config);
      const auto metrics =
          engine.run([&traffic] { return traffic.next(); }, kPackets);
      hit[mode] = metrics.dred_hit_rate();
      speed[mode] = metrics.speedup(config.service_clocks);
    }
    out.add_row({std::to_string(dred_size), percent(hit[0]), percent(hit[1]),
                 fixed(speed[0], 3), fixed(speed[1], 3)});
    csv_rows.push_back({std::to_string(dred_size), fixed(hit[0], 5),
                        fixed(hit[1], 5), fixed(speed[0], 5),
                        fixed(speed[1], 5)});
  }
  out.print(std::cout);
  clue::obs::MetricsRegistry registry;
  registry.add_table(
      "fig17_hitrate",
      {"dred_size", "clue_hit", "clpl_hit", "clue_speedup", "clpl_speedup"},
      csv_rows);
  clue::bench::export_run("hitrate", registry);
  std::cout << "\nExpected shape: CLUE's hit-rate curve dominates CLPL's at\n"
               "every size (paper Fig. 17), hence the same speedup with a\n"
               "smaller DRed (the 3/4-redundancy claim).\n";
  return 0;
}
