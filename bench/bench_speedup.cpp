// Reproduces Figure 16: speedup factor vs DRed hit rate for CLUE and
// CLPL against the theoretical worst-case bound t = (N-1)h + 1.
//
// Paper: both systems track each other (same hit rate -> same speedup)
// and both sit above the worst-case line. We sweep the DRed size to move
// the hit rate, under all-traffic-to-one-chip worst-case homing.
#include <iostream>

#include "bench_util.hpp"
#include "metrics_out.hpp"
#include "stats/stats.hpp"
#include "workload/traffic_gen.hpp"

namespace {

constexpr std::size_t kTcams = 4;
constexpr std::size_t kPackets = 400'000;

struct Point {
  double hit_rate;
  double speedup;
};

Point run_engine(clue::engine::EngineMode mode,
                 const clue::engine::EngineSetup& setup,
                 const clue::trie::BinaryTrie* full_fib,
                 std::size_t dred_size,
                 const std::vector<clue::netbase::Prefix>& hot,
                 std::uint64_t seed) {
  clue::engine::EngineConfig config;
  config.tcam_count = kTcams;
  config.dred_capacity = dred_size;
  clue::engine::ParallelEngine engine(mode, config, setup, full_fib);
  clue::workload::TrafficConfig traffic_config;
  traffic_config.seed = seed;
  traffic_config.zipf_skew = 1.1;
  clue::workload::TrafficGenerator traffic(hot, traffic_config);
  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, kPackets);
  return {metrics.dred_hit_rate(), metrics.speedup(config.service_clocks)};
}

}  // namespace

int main() {
  using clue::stats::fixed;

  clue::workload::RibConfig rib_config;
  rib_config.table_size = 60'000;
  rib_config.seed = 1601;
  const auto fib = clue::workload::generate_rib(rib_config);
  const auto table = clue::onrtc::compress(fib);

  // Worst case: every packet's home is TCAM 0 — traffic drawn only from
  // TCAM 0's routes under an identity even partition.
  const auto setup = clue::engine::build_clue_setup(table, kTcams);
  const auto clpl_setup = clue::bench::clpl_setup(fib, table, kTcams);
  const auto hot = clue::bench::prefixes_of(setup.tcam_routes[0]);

  std::cout << "=== Figure 16: speedup factor vs hit rate (worst case: all "
               "traffic homed at TCAM 1) ===\n\n";
  clue::stats::TablePrinter out({"DRedSize", "Mode", "HitRate", "Speedup",
                                 "Theory(N-1)h+1"});
  std::vector<double> clue_h, clue_t, clpl_h, clpl_t;
  for (const std::size_t dred_size :
       {16, 48, 64, 128, 256, 512, 1024, 2048, 4096, 16384}) {
    const auto clue_point = run_engine(clue::engine::EngineMode::kClue, setup,
                                       nullptr, dred_size, hot, 1602);
    const auto clpl_point =
        run_engine(clue::engine::EngineMode::kClpl, clpl_setup, &fib,
                   dred_size, hot, 1602);
    clue_h.push_back(clue_point.hit_rate);
    clue_t.push_back(clue_point.speedup);
    clpl_h.push_back(clpl_point.hit_rate);
    clpl_t.push_back(clpl_point.speedup);
    out.add_row({std::to_string(dred_size), "CLUE",
                 fixed(clue_point.hit_rate, 4), fixed(clue_point.speedup, 3),
                 fixed(3.0 * clue_point.hit_rate + 1.0, 3)});
    out.add_row({"", "CLPL", fixed(clpl_point.hit_rate, 4),
                 fixed(clpl_point.speedup, 3),
                 fixed(3.0 * clpl_point.hit_rate + 1.0, 3)});
  }
  out.print(std::cout);

  {
    std::vector<std::vector<std::string>> rows;
    for (std::size_t i = 0; i < clue_h.size(); ++i) {
      rows.push_back({fixed(clue_h[i], 5), fixed(clue_t[i], 5),
                      fixed(clpl_h[i], 5), fixed(clpl_t[i], 5),
                      fixed(3.0 * clue_h[i] + 1.0, 5)});
    }
    clue::obs::MetricsRegistry registry;
    registry.add_table(
        "fig16_speedup",
        {"clue_h", "clue_t", "clpl_h", "clpl_t", "theory_at_clue_h"}, rows);
    clue::bench::export_run("speedup", registry);
  }

  // The paper draws its Fig. 16 curves with cubic fits; emit ours so the
  // two dotted lines can be compared directly.
  const auto clue_fit = clue::stats::polyfit(clue_h, clue_t, 3);
  const auto clpl_fit = clue::stats::polyfit(clpl_h, clpl_t, 3);
  std::cout << "\nCubic fits t(h) sampled at h = 0.3/0.6/0.9:\n";
  for (const double h : {0.3, 0.6, 0.9}) {
    std::cout << "  h=" << fixed(h, 1)
              << "  CLUE " << fixed(clue::stats::polyval(clue_fit, h), 3)
              << "  CLPL " << fixed(clue::stats::polyval(clpl_fit, h), 3)
              << "  theory " << fixed(3.0 * h + 1.0, 3) << "\n";
  }
  std::cout << "\nExpected shape: speedup rises with hit rate; every row's\n"
               "Speedup >= Theory (eq. 5 is a lower bound); CLUE and CLPL\n"
               "fits coincide at equal hit rate (paper Fig. 16).\n";
  return 0;
}
