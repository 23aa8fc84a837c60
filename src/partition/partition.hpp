// Routing-table partition algorithms (paper §III-A, Fig. 9).
//
// Three contenders:
//   CLUE  — the table is non-overlapping, so an in-order walk can simply
//           deal out ceil(M/n) consecutive prefixes per bucket: exactly
//           even, zero redundancy, and each bucket is one address range.
//   CLPL  — sub-tree partition (Dong Lin et al., IPDPS'07): carve
//           subtrees into buckets of bounded size; every route on the
//           path above a carved subtree must be *replicated* into the
//           bucket so LPM still works stand-alone — that is the
//           redundancy the paper counts.
//   SLPL  — ID-bit partition (Zane et al. / Zheng et al.): pick k address
//           bits, bucket = value of those bits; prefixes shorter than the
//           deepest ID bit replicate into every bucket they straddle, and
//           bucket sizes are as uneven as the address plan is.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netbase/prefix.hpp"
#include "trie/binary_trie.hpp"

namespace clue::partition {

using netbase::Ipv4Address;
using netbase::NextHop;
using netbase::Prefix;
using netbase::Route;

/// One bucket of a partition.
struct Bucket {
  std::vector<Route> routes;
};

struct PartitionResult {
  std::vector<Bucket> buckets;
  /// Entries stored beyond the original table size (replicas).
  std::size_t redundancy = 0;
  std::string algorithm;
  /// Sub-tree partition only: the carved subtree roots of each bucket
  /// (including singleton roots for routes stored at split nodes).
  /// Together they cover every stored route; deepest-match over all
  /// roots is the bucket homing function. Empty for other algorithms.
  std::vector<std::vector<Prefix>> bucket_roots;
  /// Even partition only: `boundaries[i]` is the first address of bucket
  /// i+1, so bucket i covers [boundaries[i-1], boundaries[i]). Feeds the
  /// engine's Indexing Logic. Empty for other algorithms.
  std::vector<Ipv4Address> boundaries;

  std::size_t max_bucket() const;
  std::size_t min_bucket() const;
  std::size_t total_entries() const;
};

/// The bucket sizes of an exactly even split of `total` entries into `n`
/// buckets: ceil/floor of total/n, or, when total < n, one entry in each
/// of the *last* `total` buckets (the top bucket must own the top of the
/// address space). The rebalancer's even targets are these counts.
std::vector<std::size_t> even_counts(std::size_t total, std::size_t n);

/// CLUE: `table` must be sorted, non-overlapping. Splits into `n` buckets
/// of ceil(M/n)/floor(M/n) consecutive entries, with their n-1 range
/// boundaries.
PartitionResult even_partition(const std::vector<Route>& table, std::size_t n);

/// CLPL sub-tree partition over a (possibly overlapping) FIB.
PartitionResult subtree_partition(const trie::BinaryTrie& fib, std::size_t n);

/// SLPL ID-bit partition; `n` must be a power of two. Greedily selects
/// log2(n) bits from the first 16 address bits to minimise the largest
/// bucket, then replicates straddling prefixes.
PartitionResult idbit_partition(const trie::BinaryTrie& fib, std::size_t n);

}  // namespace clue::partition
