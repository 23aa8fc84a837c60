// Surviving a BGP update storm (the paper's §I motivation: backbone
// routers see up to 35K updates/s at traffic peaks).
//
// Replays an identical storm of updates through the whole CLUE update
// path (incremental ONRTC trie -> order-free TCAM -> DRed) and through
// the CLPL baseline (plain trie -> Shah-Gupta TCAM -> RRC-ME caches),
// then reports whether each system could keep up at 35K updates/s and
// how much lookup capacity the updates would steal.
//
//   $ ./examples/update_storm
#include <iostream>

#include "stats/stats.hpp"
#include "system/clpl_system.hpp"
#include "system/clue_system.hpp"
#include "workload/rib_gen.hpp"
#include "workload/traffic_gen.hpp"
#include "workload/update_gen.hpp"

int main() {
  using clue::stats::fixed;
  using clue::stats::percent;

  constexpr std::size_t kUpdates = 35'000;  // one peak second
  clue::workload::RibConfig rib_config;
  rib_config.table_size = 80'000;
  rib_config.seed = 500;
  const auto fib = clue::workload::generate_rib(rib_config);

  // One chip per scheme: the update path alone, no partitioning.
  clue::system::ClueSystem clue_system(fib, {.tcam_count = 1});
  clue::system::ClplSystem clpl_system(fib, {.tcam_count = 1});

  // Warm the CLPL caches so invalidation costs are realistic. CLUE's
  // DRed sync cost does not depend on what is cached, and on one chip
  // the exclusion rule leaves its only DRed empty anyway.
  std::vector<clue::netbase::Prefix> prefixes;
  fib.for_each_route([&prefixes](const clue::netbase::Route& route) {
    prefixes.push_back(route.prefix);
  });
  clue::workload::TrafficConfig traffic_config;
  traffic_config.seed = 501;
  clue::workload::TrafficGenerator traffic(prefixes, traffic_config);
  clpl_system.warm(traffic.generate(6'000));

  clue::workload::UpdateConfig update_config;
  update_config.seed = 502;
  clue::workload::UpdateGenerator clue_updates(fib, update_config);
  clue::workload::UpdateGenerator clpl_updates(fib, update_config);

  clue::stats::Summary clue_dp, clpl_dp, clue_total, clpl_total;
  for (std::size_t i = 0; i < kUpdates; ++i) {
    const auto a = clue_system.apply(clue_updates.next());
    const auto b = clpl_system.apply(clpl_updates.next()).ttf;
    clue_dp.add(a.data_plane_ns());
    clpl_dp.add(b.data_plane_ns());
    clue_total.add(a.total_ns());
    clpl_total.add(b.total_ns());
  }

  const auto report = [](const char* name, const clue::stats::Summary& dp,
                         const clue::stats::Summary& total) {
    // The TCAM is blocked for lookups while being updated: data-plane
    // time × 35K/s is lookup capacity lost to the storm.
    const double busy =
        dp.mean() * static_cast<double>(dp.count()) / 1e9;  // s per second
    std::cout << name << ":\n"
              << "  data-plane time per update: " << fixed(dp.mean(), 1)
              << " ns (max " << fixed(dp.max(), 0) << ")\n"
              << "  lookup capacity consumed at 35K upd/s: "
              << percent(busy) << "\n"
              << "  total control+data time for the storm: "
              << fixed(total.mean() * static_cast<double>(total.count()) / 1e6,
                       1)
              << " ms\n";
  };
  report("CLUE", clue_dp, clue_total);
  report("CLPL", clpl_dp, clpl_total);

  std::cout << "\nCLUE's data-plane update budget is "
            << percent(clue_dp.mean() / clpl_dp.mean())
            << " of CLPL's — the TCAMs keep forwarding while BGP melts "
               "down.\n";
  return 0;
}
