// Engine setup builders: CLUE's even range partition, and SLPL's static
// load balancing from long-period traffic statistics (Zheng et al., the
// paper's §II-B baseline).
//
// CLUE (§III-A): the sorted, disjoint table splits into one exactly even
// range per chip, bucket i homed on chip i.
//
// SLPL: buckets are assigned to chips by expected load (LPT greedy), then the
// hottest buckets are replicated onto additional chips until a
// replication budget (the paper quotes 25 % extra entries) is spent.
// The resulting EngineSetup runs under EngineMode::kSlpl: dispatch may
// pick any replica, but nothing adapts at run time — which is exactly
// what breaks when the traffic no longer matches the statistics.
//
// We deliberately reuse the even range buckets (not ID-bit hashing) so
// the only variable versus the CLUE engine is *static vs dynamic*
// redundancy; the partition-quality axis is measured separately in
// bench_partition.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/parallel_engine.hpp"

namespace clue::engine {

/// CLUE's setup: `table` (sorted, non-overlapping) split into `tcams` even
/// ranges, bucket i stored on and homed to chip i.
EngineSetup build_clue_setup(const std::vector<netbase::Route>& table,
                             std::size_t tcams);

struct SlplConfig {
  std::size_t tcam_count = 4;
  std::size_t buckets = 32;
  /// Extra (replicated) entries allowed, as a fraction of the table.
  double replication_budget = 0.25;
};

/// `table` must be sorted and non-overlapping; `bucket_load[b]` is the
/// long-period traffic share observed for bucket b (any non-negative
/// scale). Requires bucket_load.size() == config.buckets.
EngineSetup build_slpl_setup(const std::vector<netbase::Route>& table,
                             const std::vector<std::uint64_t>& bucket_load,
                             const SlplConfig& config);

/// Convenience: measures `bucket_load` (one count per bucket of
/// `boundaries`) by running `probe_packets` addresses from `probe` through
/// the bucket index.
template <typename AddressSource>
std::vector<std::uint64_t> measure_bucket_load(
    const std::vector<netbase::Ipv4Address>& boundaries,
    AddressSource&& probe, std::size_t probe_packets) {
  std::vector<std::uint64_t> load(boundaries.size() + 1, 0);
  for (std::size_t i = 0; i < probe_packets; ++i) {
    ++load[bucket_index(boundaries, probe())];
  }
  return load;
}

}  // namespace clue::engine
