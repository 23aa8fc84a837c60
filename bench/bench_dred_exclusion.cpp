// Ablation (DESIGN.md): the value of CLUE's DRed exclusion rule.
//
// The paper claims DRed i need not cache TCAM i's prefixes because the
// dispatch never sends a chip's own traffic to its own DRed, so with 4
// chips CLUE needs 3/4 of CLPL's redundancy for the same hit rate. We
// isolate the rule: the same CLUE engine, fills sent to all N DReds
// ("inclusive") vs all-but-home ("exclusive"), at equal per-chip size.
// Exclusive fills leave more useful capacity -> higher hit rate.
#include <iostream>

#include "bench_util.hpp"
#include "metrics_out.hpp"
#include "stats/stats.hpp"
#include "workload/traffic_gen.hpp"

namespace {

// An engine variant toggle is intentionally NOT part of the public API
// (the exclusion rule is load-bearing in CLUE); we emulate "inclusive"
// fills by running CLPL mode on the same compressed, non-overlapping
// table. On a disjoint table RRC-ME returns exactly the matched prefix,
// so the ONLY remaining difference from CLUE mode is that fills also go
// to the home chip's DRed — precisely the ablation we want. (The
// control-plane interaction counter still ticks; it is reported, not
// charged, here.)
double hit_rate(bool exclusive, std::size_t dred_size) {
  constexpr std::size_t kTcams = 4;
  clue::workload::RibConfig rib_config;
  rib_config.table_size = 50'000;
  rib_config.seed = 1801;
  const auto fib = clue::workload::generate_rib(rib_config);
  const auto table = clue::onrtc::compress(fib);
  const auto setup = clue::engine::build_clue_setup(table, kTcams);

  // The disjoint image as a trie, for the CLPL-mode RRC-ME calls.
  static clue::trie::BinaryTrie disjoint;
  disjoint.clear();
  for (const auto& route : table) disjoint.insert(route.prefix, route.next_hop);

  clue::engine::EngineConfig config;
  config.tcam_count = kTcams;
  config.dred_capacity = dred_size;
  clue::engine::ParallelEngine engine(
      exclusive ? clue::engine::EngineMode::kClue
                : clue::engine::EngineMode::kClpl,
      config, setup, exclusive ? nullptr : &disjoint);
  // Mixed bursty traffic: every chip both serves home lookups (whose
  // fills pollute its own DRed when the rule is off) and absorbs other
  // chips' diversions. This is where the wasted 1/N of capacity shows.
  clue::workload::TrafficConfig traffic_config;
  traffic_config.seed = 1802;
  traffic_config.zipf_skew = 1.1;
  traffic_config.burst_period = 40'000;
  clue::workload::TrafficGenerator traffic(clue::bench::prefixes_of(table),
                                           traffic_config);
  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, 250'000);
  return metrics.dred_hit_rate();
}

}  // namespace

int main() {
  using clue::stats::percent;
  std::cout << "=== Ablation: DRed exclusion rule (same table, same "
               "traffic, equal per-chip DRed) ===\n\n";
  clue::stats::TablePrinter out(
      {"DRedSize", "Exclusive(CLUE rule)", "Inclusive(no rule)"});
  for (const std::size_t size : {64, 128, 256, 512, 1024}) {
    out.add_row({std::to_string(size), percent(hit_rate(true, size)),
                 percent(hit_rate(false, size))});
  }
  out.print(std::cout);
  clue::bench::export_table("dred_exclusion", out);
  std::cout << "\nExpected shape: the exclusive column dominates — fills\n"
               "that could never be hit no longer evict useful entries.\n";
  return 0;
}
