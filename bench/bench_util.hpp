// Shared setup helpers for the per-figure benchmark binaries.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "engine/parallel_engine.hpp"
#include "engine/slpl_setup.hpp"
#include "netbase/prefix.hpp"
#include "onrtc/onrtc.hpp"
#include "partition/partition.hpp"
#include "trie/binary_trie.hpp"
#include "workload/rib_gen.hpp"

namespace clue::bench {

/// CLPL engine setup: sub-tree partition of the *uncompressed* FIB. The
/// indexing for diverted traffic still needs range boundaries, so we use
/// the compressed table's even ranges for bucket->TCAM homing (both
/// engines must agree on "home" for a fair DRed comparison) while each
/// chip stores its sub-tree bucket plus covering replicas.
inline engine::EngineSetup clpl_setup(const trie::BinaryTrie& fib,
                                      const std::vector<netbase::Route>& table,
                                      std::size_t tcams) {
  engine::EngineSetup setup = engine::build_clue_setup(table, tcams);
  const auto partitions = partition::subtree_partition(fib, tcams);
  // Keep the homing identical to CLUE's, but store the (overlapping)
  // sub-tree buckets: every chip must answer LPM for its own range, so
  // fold each sub-tree bucket into the chip owning most of its range.
  // For benchmarking we simply store the full uncompressed route set of
  // each range (range split over the original FIB), replicating covering
  // prefixes — this is what CLPL's redundancy pays for.
  setup.tcam_routes.assign(tcams, {});
  std::vector<netbase::Route> all = fib.routes();
  // Assign each original route to the chip whose range holds it.
  const engine::IndexingLogic indexing(setup.bucket_boundaries,
                                       setup.bucket_to_tcam);
  for (const auto& route : all) {
    setup.tcam_routes[indexing.tcam_of(route.prefix.range_low())].push_back(
        route);
  }
  // Covering prefixes that straddle a boundary must be replicated into
  // every chip whose range they intersect.
  for (const auto& route : all) {
    const std::size_t first = indexing.tcam_of(route.prefix.range_low());
    const std::size_t last = indexing.tcam_of(route.prefix.range_high());
    for (std::size_t chip = first + 1; chip <= last; ++chip) {
      setup.tcam_routes[chip].push_back(route);
    }
  }
  return setup;
}

inline std::vector<netbase::Prefix> prefixes_of(
    const std::vector<netbase::Route>& table) {
  std::vector<netbase::Prefix> out;
  out.reserve(table.size());
  for (const auto& route : table) out.push_back(route.prefix);
  return out;
}

/// The paper's Table-II / Fig-15 construction: split the table into
/// `buckets` even partitions, measure each partition's traffic share
/// with a probe stream, sort by load, and deal buckets/tcams partitions
/// per chip in descending order — deliberately the most uneven mapping.
struct WorstCaseSetup {
  engine::EngineSetup setup;
  std::vector<double> offered_share;  ///< per-TCAM share of probe traffic
};

template <typename AddressSource>
WorstCaseSetup worst_case_setup(const std::vector<netbase::Route>& table,
                                std::size_t tcams, std::size_t buckets,
                                AddressSource&& probe,
                                std::size_t probe_packets) {
  auto partitions = partition::even_partition(table, buckets);

  const engine::IndexingLogic probe_index(partitions.boundaries);
  std::vector<std::uint64_t> load(buckets, 0);
  for (std::size_t i = 0; i < probe_packets; ++i) {
    ++load[probe_index.bucket_of(probe())];
  }

  std::vector<std::size_t> order(buckets);
  for (std::size_t i = 0; i < buckets; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&load](std::size_t a, std::size_t b) { return load[a] > load[b]; });

  WorstCaseSetup result;
  result.setup.bucket_boundaries = std::move(partitions.boundaries);
  result.setup.bucket_to_tcam.assign(buckets, 0);
  result.setup.tcam_routes.assign(tcams, {});
  result.offered_share.assign(tcams, 0.0);
  const std::size_t per_chip = buckets / tcams;
  for (std::size_t rank = 0; rank < buckets; ++rank) {
    const std::size_t bucket = order[rank];
    const std::size_t chip = rank / per_chip;
    result.setup.bucket_to_tcam[bucket] = chip;
    auto& routes = result.setup.tcam_routes[chip];
    routes.insert(routes.end(), partitions.buckets[bucket].routes.begin(),
                  partitions.buckets[bucket].routes.end());
    result.offered_share[chip] += static_cast<double>(load[bucket]) /
                                  static_cast<double>(probe_packets);
  }
  return result;
}

}  // namespace clue::bench
