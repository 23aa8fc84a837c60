#include "partition/partition.hpp"

#include <gtest/gtest.h>

#include "netbase/rng.hpp"
#include "onrtc/onrtc.hpp"
#include "workload/rib_gen.hpp"

namespace clue::partition {
namespace {

using netbase::Ipv4Address;
using netbase::make_next_hop;
using netbase::Pcg32;
using trie::BinaryTrie;

BinaryTrie small_fib(Pcg32& rng, std::size_t routes) {
  BinaryTrie fib;
  while (fib.size() < routes) {
    fib.insert(Prefix(Ipv4Address(rng.next()), 8 + rng.next_below(18)),
               make_next_hop(1 + rng.next_below(8)));
  }
  return fib;
}

std::vector<Route> disjoint_table(Pcg32& rng, std::size_t routes) {
  return onrtc::compress(small_fib(rng, routes));
}

TEST(EvenPartition, RejectsZeroBuckets) {
  EXPECT_THROW(even_partition({}, 0), std::invalid_argument);
}

TEST(EvenPartition, SplitsExactlyEvenly) {
  Pcg32 rng(3);
  const auto table = disjoint_table(rng, 1000);
  const auto result = even_partition(table, 4);
  ASSERT_EQ(result.buckets.size(), 4u);
  EXPECT_EQ(result.redundancy, 0u);
  EXPECT_LE(result.max_bucket() - result.min_bucket(), 1u);
  EXPECT_EQ(result.total_entries(), table.size());
}

TEST(EvenPartition, PreservesOrderAndContent) {
  Pcg32 rng(5);
  const auto table = disjoint_table(rng, 500);
  const auto result = even_partition(table, 8);
  std::vector<Route> flattened;
  for (const auto& bucket : result.buckets) {
    flattened.insert(flattened.end(), bucket.routes.begin(),
                     bucket.routes.end());
  }
  EXPECT_EQ(flattened, table);
}

TEST(EvenPartition, BucketsAreAddressRanges) {
  Pcg32 rng(7);
  const auto table = disjoint_table(rng, 600);
  const auto result = even_partition(table, 4);
  for (std::size_t b = 0; b + 1 < result.buckets.size(); ++b) {
    ASSERT_FALSE(result.buckets[b].routes.empty());
    EXPECT_LT(result.buckets[b].routes.back().prefix.range_high(),
              result.buckets[b + 1].routes.front().prefix.range_low());
  }
}

TEST(EvenPartition, MoreBucketsThanRoutesLeavesEmpties) {
  Pcg32 rng(9);
  const auto table = disjoint_table(rng, 3);
  const auto result = even_partition(table, 8);
  EXPECT_EQ(result.total_entries(), table.size());
  EXPECT_EQ(result.max_bucket(), 1u);
}

// Regression: the degenerate layout (fewer routes than buckets) must put
// the empty buckets FIRST. A trailing empty bucket would need a boundary
// one past the top of the address space — unrepresentable, historically
// faked with 255.255.255.255, which claimed that address for an empty
// bucket and produced duplicate boundaries.
TEST(EvenPartition, DegenerateLayoutPutsOccupiedBucketsAtEnd) {
  Pcg32 rng(37);
  const auto table = disjoint_table(rng, 3);
  const std::size_t m = table.size();  // compression may merge below 3
  ASSERT_GE(m, 1u);
  ASSERT_LT(m, 8u);
  const auto result = even_partition(table, 8);
  ASSERT_EQ(result.buckets.size(), 8u);
  for (std::size_t b = 0; b < 8 - m; ++b) {
    EXPECT_TRUE(result.buckets[b].routes.empty()) << "bucket " << b;
  }
  for (std::size_t b = 8 - m; b < 8; ++b) {
    ASSERT_EQ(result.buckets[b].routes.size(), 1u) << "bucket " << b;
    EXPECT_EQ(result.buckets[b].routes.front(), table[b - (8 - m)]);
  }
  // The top bucket owns the top of the table (and so the top of the
  // address space under range indexing).
  EXPECT_EQ(result.buckets.back().routes.back(), table.back());
}

TEST(EvenPartitionBoundaries, DegenerateBoundariesSortedNoSentinel) {
  Pcg32 rng(41);
  const auto table = disjoint_table(rng, 3);
  const std::size_t n = 8;
  const auto boundaries = even_partition(table, n).boundaries;
  ASSERT_EQ(boundaries.size(), n - 1);
  // Non-decreasing, and never the old 255.255.255.255 sentinel.
  for (std::size_t i = 0; i + 1 < boundaries.size(); ++i) {
    EXPECT_LE(boundaries[i], boundaries[i + 1]);
  }
  for (const auto boundary : boundaries) {
    EXPECT_LT(boundary, Ipv4Address(~std::uint32_t{0}));
  }
}

TEST(EvenPartitionBoundaries, DegenerateBoundariesHomeEveryRoute) {
  Pcg32 rng(43);
  for (const std::size_t routes : {1u, 2u, 3u, 5u, 7u}) {
    const auto table = disjoint_table(rng, routes);
    const std::size_t n = 8;
    const auto result = even_partition(table, n);
    const auto& boundaries = result.boundaries;
    for (std::size_t b = 0; b < n; ++b) {
      for (const auto& route : result.buckets[b].routes) {
        std::size_t index = 0;
        while (index < boundaries.size() &&
               route.prefix.range_low() >= boundaries[index]) {
          ++index;
        }
        ASSERT_EQ(index, b)
            << routes << " routes: " << route.prefix.to_string();
      }
    }
  }
}

TEST(EvenPartitionBoundaries, RouteEveryAddressToItsBucket) {
  Pcg32 rng(11);
  const auto table = disjoint_table(rng, 800);
  const std::size_t n = 4;
  const auto result = even_partition(table, n);
  const auto& boundaries = result.boundaries;
  ASSERT_EQ(boundaries.size(), n - 1);
  for (std::size_t b = 0; b < n; ++b) {
    for (const auto& route : result.buckets[b].routes) {
      // Bucket index from the boundaries must match the dealt bucket.
      std::size_t index = 0;
      while (index < boundaries.size() &&
             route.prefix.range_low() >= boundaries[index]) {
        ++index;
      }
      ASSERT_EQ(index, b) << route.prefix.to_string();
    }
  }
}

// ---------------------------------------------------------------------------

// Every bucket of a sub-tree partition must answer LPM stand-alone:
// route each address to the bucket owning its carved range and compare
// against the full-table answer. We approximate "owning bucket" as any
// bucket whose answer we check — the partition contract is that the
// bucket holding the longest matching (non-replica) prefix answers
// exactly like the full FIB.
TEST(SubtreePartition, BucketsAnswerLpmStandalone) {
  Pcg32 rng(13);
  const auto fib = small_fib(rng, 400);
  const auto result = subtree_partition(fib, 4);
  ASSERT_EQ(result.buckets.size(), 4u);

  // Build per-bucket tries.
  std::vector<BinaryTrie> tries(result.buckets.size());
  for (std::size_t b = 0; b < result.buckets.size(); ++b) {
    for (const auto& route : result.buckets[b].routes) {
      tries[b].insert(route.prefix, route.next_hop);
    }
  }
  for (int probe = 0; probe < 3000; ++probe) {
    const Ipv4Address address(rng.next());
    const auto expected = fib.lookup(address);
    if (expected == netbase::kNoRoute) continue;
    // The bucket that contains the winning prefix must answer correctly.
    const auto winner = fib.lookup_route(address);
    ASSERT_TRUE(winner.has_value());
    bool found = false;
    for (std::size_t b = 0; b < tries.size(); ++b) {
      if (tries[b].find(winner->prefix).has_value()) {
        ASSERT_EQ(tries[b].lookup(address), expected)
            << "bucket " << b << " " << address.to_string();
        found = true;
      }
    }
    ASSERT_TRUE(found) << winner->prefix.to_string();
  }
}

TEST(SubtreePartition, CoversAllRoutes) {
  Pcg32 rng(17);
  const auto fib = small_fib(rng, 300);
  const auto result = subtree_partition(fib, 4);
  // Every original route appears somewhere.
  std::size_t found = 0;
  fib.for_each_route([&](const Route& route) {
    for (const auto& bucket : result.buckets) {
      if (std::find(bucket.routes.begin(), bucket.routes.end(), route) !=
          bucket.routes.end()) {
        ++found;
        return;
      }
    }
  });
  EXPECT_EQ(found, fib.size());
  EXPECT_EQ(result.total_entries(), fib.size() + result.redundancy);
}

TEST(SubtreePartition, IntroducesRedundancyOnOverlappingTables) {
  // One huge covering aggregate whose subtree cannot fit in a single
  // bucket: its route must be replicated into every bucket that receives
  // a carved piece of the subtree (Lin et al.'s redundancy).
  BinaryTrie fib;
  fib.insert(Prefix(Ipv4Address(0x0A000000u), 8), make_next_hop(1));
  for (std::uint32_t i = 0; i < 200; ++i) {
    fib.insert(Prefix(Ipv4Address(0x0A000000u | (i << 8)), 24),
               make_next_hop(2 + (i % 3)));
  }
  const auto result = subtree_partition(fib, 8);
  EXPECT_GT(result.redundancy, 0u);
  EXPECT_EQ(result.total_entries(), fib.size() + result.redundancy);
}

TEST(SubtreePartition, NoRedundancyNeededOnDisjointTables) {
  Pcg32 rng(23);
  const auto table = disjoint_table(rng, 200);
  BinaryTrie disjoint;
  for (const auto& route : table) disjoint.insert(route.prefix, route.next_hop);
  const auto result = subtree_partition(disjoint, 4);
  EXPECT_EQ(result.redundancy, 0u);
}

TEST(SubtreePartition, PrimaryCountsRoughlyEven) {
  Pcg32 rng(29);
  const auto fib = small_fib(rng, 1000);
  const auto result = subtree_partition(fib, 4);
  // Replica-inclusive sizes may vary, but no bucket should dwarf the
  // target of M/n by more than the carve granularity allows.
  EXPECT_LT(result.max_bucket(), fib.size());
  EXPECT_GT(result.min_bucket(), 0u);
}

// ---------------------------------------------------------------------------

TEST(IdbitPartition, RejectsNonPowerOfTwo) {
  BinaryTrie fib;
  fib.insert(Prefix(Ipv4Address(0x0A000000), 8), make_next_hop(1));
  EXPECT_THROW(idbit_partition(fib, 3), std::invalid_argument);
  EXPECT_THROW(idbit_partition(fib, 0), std::invalid_argument);
}

TEST(IdbitPartition, EveryAddressRoutableInItsBucket) {
  Pcg32 rng(31);
  const auto fib = small_fib(rng, 300);
  const auto result = idbit_partition(fib, 4);
  ASSERT_EQ(result.buckets.size(), 4u);
  // Each route is present in every bucket its addresses can hash to, so
  // the union must cover the table with multiplicity = redundancy.
  EXPECT_EQ(result.total_entries(), fib.size() + result.redundancy);
}

TEST(IdbitPartition, ShortPrefixesReplicate) {
  BinaryTrie fib;
  // A /4 is shorter than any selectable ID bit set from the first 16
  // bits unless all chosen bits are within the first 4 — force more.
  fib.insert(Prefix(Ipv4Address(0x00000000u), 1), make_next_hop(1));
  for (int i = 0; i < 32; ++i) {
    fib.insert(Prefix(Ipv4Address(0x80000000u | (std::uint32_t(i) << 20)), 16),
               make_next_hop(2));
  }
  const auto result = idbit_partition(fib, 4);
  // The /1 must appear in at least two buckets (at least one chosen bit
  // lies beyond its length).
  std::size_t copies = 0;
  for (const auto& bucket : result.buckets) {
    for (const auto& route : bucket.routes) {
      if (route.prefix.length() == 1) ++copies;
    }
  }
  EXPECT_GE(copies, 2u);
  EXPECT_GT(result.redundancy, 0u);
}

TEST(IdbitPartition, LessEvenThanCluePartition) {
  // Fig. 9's qualitative claim: SLPL cannot split evenly, CLUE can.
  workload::RibConfig config;
  config.table_size = 5'000;
  config.seed = 21;
  const auto fib = workload::generate_rib(config);
  const auto slpl = idbit_partition(fib, 8);
  const auto clue =
      even_partition(onrtc::compress(fib), 8);
  const double slpl_spread =
      static_cast<double>(slpl.max_bucket() - slpl.min_bucket());
  const double clue_spread =
      static_cast<double>(clue.max_bucket() - clue.min_bucket());
  EXPECT_GT(slpl_spread, clue_spread);
  EXPECT_LE(clue_spread, 1.0);
}

}  // namespace
}  // namespace clue::partition
