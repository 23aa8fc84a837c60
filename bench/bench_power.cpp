// Ablation (paper §II-A.3): power. One TCAM search activates every
// valid entry in the searched block, so energy/search ∝ entries probed.
// Partitioning means only the home chip searches; compression shrinks
// what it holds. This bench quantifies the stack of savings the paper's
// architecture inherits from CoolCAMs-style partitioning plus ONRTC:
//
//   monolithic, uncompressed            — the naive deployment;
//   monolithic, ONRTC                   — compression alone;
//   4-way partitioned, uncompressed     — partitioning alone (CLPL-ish);
//   4-way partitioned, ONRTC (CLUE)     — both.
#include <iostream>

#include "bench_util.hpp"
#include "metrics_out.hpp"
#include "stats/stats.hpp"
#include "tcam/tcam_chip.hpp"
#include "workload/traffic_gen.hpp"

namespace {

// Loads a route set into one chip and runs the traffic, returning the
// activated-entry count per search.
double energy_per_search(const std::vector<clue::netbase::Route>& routes,
                         const std::vector<clue::netbase::Ipv4Address>& trace,
                         const clue::engine::IndexingLogic* indexing,
                         const std::vector<clue::tcam::TcamChip*>& chips) {
  (void)routes;
  std::uint64_t activated = 0;
  for (const auto address : trace) {
    const std::size_t chip = indexing ? indexing->tcam_of(address) : 0;
    chips[chip]->search(address);
  }
  for (const auto* chip : chips) activated += chip->stats().activated_entries;
  return static_cast<double>(activated) / static_cast<double>(trace.size());
}

clue::tcam::TcamChip load(const std::vector<clue::netbase::Route>& routes) {
  clue::tcam::TcamChip chip(routes.size() + 1);
  std::size_t slot = 0;
  for (const auto& route : routes) {
    chip.write(slot++, clue::tcam::TcamEntry{route.prefix, route.next_hop});
  }
  return chip;
}

}  // namespace

int main() {
  using clue::stats::fixed;
  using clue::stats::percent;

  clue::workload::RibConfig rib_config;
  rib_config.table_size = 60'000;
  rib_config.seed = 2001;
  const auto fib = clue::workload::generate_rib(rib_config);
  const auto original = fib.routes();
  const auto compressed = clue::onrtc::compress(fib);

  clue::workload::TrafficConfig traffic_config;
  traffic_config.seed = 2002;
  clue::workload::TrafficGenerator traffic(
      clue::bench::prefixes_of(compressed), traffic_config);
  const auto trace = traffic.generate(100'000);

  std::cout << "=== Power model: activated TCAM entries per search ===\n\n";
  clue::stats::TablePrinter out(
      {"Configuration", "TotalEntries", "Entries/search", "vsNaive"});
  double baseline = 0;

  const auto report = [&](const char* name,
                          const std::vector<clue::netbase::Route>& table,
                          bool partitioned) {
    double energy;
    std::size_t total;
    if (!partitioned) {
      auto chip = load(table);
      std::vector<clue::tcam::TcamChip*> chips{&chip};
      energy = energy_per_search(table, trace, nullptr, chips);
      total = chip.occupied();
    } else {
      const auto setup = clue::engine::build_clue_setup(table, 4);
      std::vector<clue::tcam::TcamChip> chips;
      chips.reserve(4);
      for (const auto& routes : setup.tcam_routes) chips.push_back(load(routes));
      std::vector<clue::tcam::TcamChip*> pointers;
      for (auto& chip : chips) pointers.push_back(&chip);
      const clue::engine::IndexingLogic indexing(setup.bucket_boundaries,
                                                 setup.bucket_to_tcam);
      energy = energy_per_search(table, trace, &indexing, pointers);
      total = 0;
      for (const auto& chip : chips) total += chip.occupied();
    }
    if (baseline == 0) baseline = energy;
    out.add_row({name, std::to_string(total), fixed(energy, 0),
                 percent(energy / baseline)});
  };

  report("monolithic, uncompressed", original, false);
  report("monolithic, ONRTC", compressed, false);
  report("4-way partitioned, uncompressed", original, true);
  report("4-way partitioned, ONRTC (CLUE)", compressed, true);
  out.print(std::cout);
  clue::bench::export_table("power", out);
  std::cout << "\nExpected shape: partitioning divides energy by ~4, ONRTC\n"
               "shaves a further ~29%; combined ~18% of the naive search.\n";
  return 0;
}
