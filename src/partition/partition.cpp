#include "partition/partition.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace clue::partition {

std::size_t PartitionResult::max_bucket() const {
  std::size_t best = 0;
  for (const auto& bucket : buckets) best = std::max(best, bucket.routes.size());
  return best;
}

std::size_t PartitionResult::min_bucket() const {
  if (buckets.empty()) return 0;
  std::size_t best = buckets.front().routes.size();
  for (const auto& bucket : buckets) best = std::min(best, bucket.routes.size());
  return best;
}

std::size_t PartitionResult::total_entries() const {
  std::size_t total = 0;
  for (const auto& bucket : buckets) total += bucket.routes.size();
  return total;
}

// ---------------------------------------------------------------------------
// CLUE: even split of a sorted non-overlapping table (paper §III-A).

// The normal case front-loads the `extra` remainder entries. The
// degenerate case (fewer routes than buckets) instead pushes the occupied
// singletons to the *end*: a bucket's range is bounded above by the first
// address of the next bucket, so a trailing empty bucket would need a
// boundary one past the top of the address space — unrepresentable, and
// historically faked with 255.255.255.255 which then claimed that address
// for an empty bucket and produced duplicate boundaries (ambiguous binary
// search). Leading empty buckets need no such sentinel: their boundaries
// repeat the first route's range_low, so addresses below the table map to
// empty bucket 0 and every stored route homes correctly.
std::vector<std::size_t> even_counts(std::size_t total, std::size_t n) {
  std::vector<std::size_t> counts(n, 0);
  if (n == 0) return counts;
  const std::size_t base = total / n;
  const std::size_t extra = total % n;
  if (base == 0) {
    for (std::size_t i = n - extra; i < n; ++i) counts[i] = 1;
    return counts;
  }
  for (std::size_t i = 0; i < n; ++i) counts[i] = base + (i < extra ? 1 : 0);
  return counts;
}

PartitionResult even_partition(const std::vector<Route>& table,
                               std::size_t n) {
  if (n == 0) throw std::invalid_argument("even_partition: n must be > 0");
  PartitionResult result;
  result.algorithm = "clue-even";
  result.buckets.resize(n);
  const std::vector<std::size_t> counts = even_counts(table.size(), n);
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto& bucket = result.buckets[i];
    bucket.routes.assign(
        table.begin() + static_cast<std::ptrdiff_t>(cursor),
        table.begin() + static_cast<std::ptrdiff_t>(cursor + counts[i]));
    cursor += counts[i];
    if (i + 1 == n) break;
    // First address of the next bucket. even_counts guarantees a
    // non-empty table never leaves the cursor past the end here (empty
    // buckets lead, so every bucket suffix holds at least one route);
    // an entirely empty table degenerates to address 0 everywhere,
    // homing all addresses to one (empty) bucket — harmless.
    result.boundaries.push_back(cursor < table.size()
                                    ? table[cursor].prefix.range_low()
                                    : Ipv4Address(0));
  }
  return result;
}

// ---------------------------------------------------------------------------
// CLPL: sub-tree partition (Lin et al.).

namespace {

using NodeRef = trie::BinaryTrie::NodeRef;

// Routes in each node's subtree, indexed by the node's arena slot.
std::size_t annotate_counts(NodeRef node, std::vector<std::size_t>& counts) {
  if (!node) return 0;
  std::size_t count = node.has_route() ? 1 : 0;
  count += annotate_counts(node.child(0), counts);
  count += annotate_counts(node.child(1), counts);
  counts[node.index()] = count;
  return count;
}

struct SubtreeCarver {
  const std::vector<std::size_t>& counts;
  std::size_t capacity;        // primary routes per bucket
  PartitionResult& result;
  std::size_t remaining = 0;   // primary capacity left in current bucket
  std::size_t current = 0;     // current bucket index
  std::size_t replicas = 0;

  void open_bucket_if_needed() {
    if (remaining > 0) return;
    if (current + 1 < result.buckets.size()) ++current;
    remaining = capacity;
  }

  void place_route(const Route& route) {
    open_bucket_if_needed();
    result.buckets[current].routes.push_back(route);
    result.bucket_roots[current].push_back(route.prefix);
    --remaining;
  }

  // Copies every route on the path above a carved subtree into its
  // bucket so the bucket answers LPM stand-alone.
  void place_covering(const std::vector<Route>& path_routes,
                      Bucket& bucket) {
    for (const auto& route : path_routes) {
      const bool present =
          std::find(bucket.routes.begin(), bucket.routes.end(), route) !=
          bucket.routes.end();
      if (!present) {
        bucket.routes.push_back(route);
        ++replicas;
      }
    }
  }

  void carve(NodeRef node, const Prefix& at,
             std::vector<Route>& path_routes) {
    if (!node) return;
    const std::size_t count = counts[node.index()];
    if (count == 0) return;
    open_bucket_if_needed();
    if (count <= remaining) {
      // Whole subtree fits: carve it into the current bucket.
      auto& bucket = result.buckets[current];
      place_covering(path_routes, bucket);
      collect(node, at, bucket);
      result.bucket_roots[current].push_back(at);
      remaining -= count;
      return;
    }
    // Split: the node's own route becomes part of the path cover for the
    // carves below, and is also stored now (in order) as a primary entry.
    const bool has_own = node.has_route();
    if (has_own) {
      const Route own{at, node.next_hop()};
      place_route(own);
      path_routes.push_back(own);
    }
    carve(node.child(0), at.child(0), path_routes);
    carve(node.child(1), at.child(1), path_routes);
    if (has_own) path_routes.pop_back();
  }

  void collect(NodeRef node, const Prefix& at, Bucket& bucket) {
    if (!node) return;
    if (node.has_route()) bucket.routes.push_back(Route{at, node.next_hop()});
    collect(node.child(0), at.child(0), bucket);
    collect(node.child(1), at.child(1), bucket);
  }
};

}  // namespace

PartitionResult subtree_partition(const trie::BinaryTrie& fib,
                                  std::size_t n) {
  if (n == 0) throw std::invalid_argument("subtree_partition: n must be > 0");
  PartitionResult result;
  result.algorithm = "clpl-subtree";
  result.buckets.resize(n);
  result.bucket_roots.resize(n);
  if (fib.empty()) return result;

  std::vector<std::size_t> counts(fib.arena_slots());
  annotate_counts(fib.root(), counts);

  SubtreeCarver carver{counts, (fib.size() + n - 1) / n, result};
  carver.remaining = carver.capacity;  // bucket 0 starts open
  std::vector<Route> path_routes;
  carver.carve(fib.root(), Prefix(), path_routes);
  result.redundancy = carver.replicas;
  return result;
}

// ---------------------------------------------------------------------------
// SLPL: ID-bit partition (Zane et al. bit selection).

namespace {

// Buckets a prefix maps to under the selected ID bits: bits inside the
// prefix are fixed; bits beyond its length are wildcards, so the prefix
// replicates into every combination.
void for_each_bucket_of(const Prefix& prefix,
                        const std::vector<unsigned>& bits,
                        const std::function<void(std::size_t)>& visit) {
  std::vector<unsigned> wild;
  std::size_t base = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] < prefix.length()) {
      base |= static_cast<std::size_t>(prefix.bit(bits[i])) << i;
    } else {
      wild.push_back(static_cast<unsigned>(i));
    }
  }
  const std::size_t combos = std::size_t{1} << wild.size();
  for (std::size_t c = 0; c < combos; ++c) {
    std::size_t index = base;
    for (std::size_t w = 0; w < wild.size(); ++w) {
      if ((c >> w) & 1u) index |= std::size_t{1} << wild[w];
    }
    visit(index);
  }
}

std::size_t max_load(const std::vector<Route>& routes,
                     const std::vector<unsigned>& bits) {
  std::vector<std::size_t> load(std::size_t{1} << bits.size(), 0);
  for (const auto& route : routes) {
    for_each_bucket_of(route.prefix, bits,
                       [&load](std::size_t b) { ++load[b]; });
  }
  return *std::max_element(load.begin(), load.end());
}

}  // namespace

PartitionResult idbit_partition(const trie::BinaryTrie& fib, std::size_t n) {
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("idbit_partition: n must be a power of two");
  }
  PartitionResult result;
  result.algorithm = "slpl-idbit";
  result.buckets.resize(n);
  const auto routes = fib.routes();
  if (routes.empty()) return result;

  // Greedy bit selection over the first 16 address bits: each round adds
  // the bit that minimises the largest bucket.
  std::vector<unsigned> selected;
  std::size_t k = 0;
  for (std::size_t m = n; m > 1; m >>= 1) ++k;
  for (std::size_t round = 0; round < k; ++round) {
    unsigned best_bit = 0;
    std::size_t best_load = ~std::size_t{0};
    for (unsigned candidate = 0; candidate < 16; ++candidate) {
      if (std::find(selected.begin(), selected.end(), candidate) !=
          selected.end()) {
        continue;
      }
      auto trial = selected;
      trial.push_back(candidate);
      const std::size_t load = max_load(routes, trial);
      if (load < best_load) {
        best_load = load;
        best_bit = candidate;
      }
    }
    selected.push_back(best_bit);
  }

  for (const auto& route : routes) {
    for_each_bucket_of(route.prefix, selected, [&](std::size_t b) {
      result.buckets[b].routes.push_back(route);
    });
  }
  result.redundancy = result.total_entries() - routes.size();
  return result;
}

}  // namespace clue::partition
