// Reproduces the paper's §III-C design argument: "caching prefixes is
// more efficient [than caching destination addresses], and this is also
// in accord with our experimental results."
//
// Same traffic, same capacity budget, three cache granularities, each a
// DredStore (one LRU and one LPM probe), differing only in what it holds:
//   address   — /32 host routes, an exact-IP cache (Shyu / Chiueh /
//               Talbot style);
//   rrc-me    — minimal-expansion prefixes (what CLPL caches);
//   region    — ONRTC disjoint regions (what CLUE caches).
// Each entry of a coarser granularity covers more of the address space,
// so at equal capacity hit rates must order address < rrc-me < region.
#include <iostream>

#include "engine/dred.hpp"
#include "metrics_out.hpp"
#include "onrtc/onrtc.hpp"
#include "rrcme/rrc_me.hpp"
#include "stats/stats.hpp"
#include "workload/rib_gen.hpp"
#include "workload/traffic_gen.hpp"

int main() {
  using clue::stats::percent;

  clue::workload::RibConfig rib_config;
  rib_config.table_size = 60'000;
  rib_config.seed = 2301;
  const auto fib = clue::workload::generate_rib(rib_config);
  const auto table = clue::onrtc::compress(fib);
  clue::trie::BinaryTrie disjoint;
  for (const auto& route : table) disjoint.insert(route.prefix, route.next_hop);

  clue::workload::TrafficConfig traffic_config;
  traffic_config.seed = 2302;
  traffic_config.zipf_skew = 1.05;
  std::vector<clue::netbase::Prefix> prefixes;
  for (const auto& route : table) prefixes.push_back(route.prefix);
  clue::workload::TrafficGenerator traffic(prefixes, traffic_config);
  const auto trace = traffic.generate(400'000);

  std::cout << "=== §III-C: cache granularity at equal capacity ===\n\n";
  clue::stats::TablePrinter out(
      {"Capacity", "address-cache", "rrc-me-prefix", "onrtc-region"});
  for (const std::size_t capacity : {256, 1024, 4096, 16384}) {
    clue::engine::DredStore addresses(capacity);
    clue::engine::DredStore expansions(capacity);
    clue::engine::DredStore regions(capacity);
    for (const auto address : trace) {
      // Miss -> fill, the standard demand-filled cache discipline.
      if (!addresses.lookup(address)) {
        addresses.insert(clue::netbase::Route{
            clue::netbase::Prefix(address, clue::netbase::Prefix::kMaxLength),
            fib.lookup(address)});
      }
      if (!expansions.lookup(address)) {
        if (const auto fill = clue::rrcme::minimal_expansion(fib, address)) {
          expansions.insert(
              clue::netbase::Route{fill->prefix, fill->next_hop});
        }
      }
      if (!regions.lookup(address)) {
        if (const auto matched = disjoint.lookup_route(address)) {
          regions.insert(*matched);
        }
      }
    }
    out.add_row({std::to_string(capacity),
                 percent(addresses.stats().hit_rate()),
                 percent(expansions.stats().hit_rate()),
                 percent(regions.stats().hit_rate())});
  }
  out.print(std::cout);
  clue::bench::export_table("cache_granularity", out);
  std::cout << "\nExpected shape: region >= rrc-me >> address at every\n"
               "capacity — each coarser entry covers more addresses, which\n"
               "is why CLPL caches prefixes and CLUE's regions do even\n"
               "better (Fig. 17's mechanism).\n";
  return 0;
}
