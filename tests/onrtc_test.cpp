#include "onrtc/onrtc.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "netbase/rng.hpp"
#include "workload/rib_gen.hpp"

namespace clue::onrtc {
namespace {

using netbase::Ipv4Address;
using netbase::kNoRoute;
using netbase::make_next_hop;
using netbase::Pcg32;
using trie::BinaryTrie;

Prefix p(const char* text) {
  const auto parsed = Prefix::parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return *parsed;
}

// ---------------------------------------------------------------------------
// Independent oracle: compute the forwarding function as address
// intervals by sweeping prefix boundaries, then count the minimal
// aligned-CIDR decomposition of every maximal constant run. Any disjoint
// prefix lies inside exactly one maximal run, so the per-run greedy CIDR
// decomposition is a true lower bound (and achievable).
std::size_t oracle_min_disjoint(const BinaryTrie& fib) {
  std::set<std::uint64_t> cuts{0, std::uint64_t{1} << 32};
  fib.for_each_route([&cuts](const netbase::Route& route) {
    cuts.insert(route.prefix.range_low().value());
    cuts.insert(std::uint64_t{route.prefix.range_high().value()} + 1);
  });
  // Maximal constant runs of the LPM function.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> runs;  // [lo, hi)
  std::vector<NextHop> values;
  std::uint64_t previous = 0;
  NextHop current = kNoRoute;
  bool first = true;
  for (auto it = cuts.begin(); it != cuts.end(); ++it) {
    if (*it == (std::uint64_t{1} << 32)) break;
    const auto value =
        fib.lookup(Ipv4Address(static_cast<std::uint32_t>(*it)));
    if (first) {
      current = value;
      previous = *it;
      first = false;
      continue;
    }
    if (value != current) {
      runs.emplace_back(previous, *it);
      values.push_back(current);
      previous = *it;
      current = value;
    }
  }
  runs.emplace_back(previous, std::uint64_t{1} << 32);
  values.push_back(current);

  std::size_t total = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (values[i] == kNoRoute) continue;  // unrouted runs cost nothing
    auto [lo, hi] = runs[i];
    while (lo < hi) {
      // Largest aligned block starting at lo that fits in [lo, hi).
      std::uint64_t block = lo == 0 ? (std::uint64_t{1} << 32)
                                    : (lo & (~lo + 1));  // lowest set bit
      while (block > hi - lo) block >>= 1;
      lo += block;
      ++total;
    }
  }
  return total;
}

BinaryTrie random_fib(Pcg32& rng, std::size_t routes, unsigned min_len,
                      unsigned max_len, std::uint32_t hops) {
  BinaryTrie fib;
  for (std::size_t i = 0; i < routes; ++i) {
    // Confined to 10.0.0.0/8 so prefixes overlap heavily.
    const std::uint32_t bits =
        0x0A000000u | (rng.next() & 0x00FFFFFFu);
    const unsigned length = min_len + rng.next_below(max_len - min_len + 1);
    fib.insert(Prefix(Ipv4Address(bits), length),
               make_next_hop(1 + rng.next_below(hops)));
  }
  return fib;
}

void expect_equivalent(const BinaryTrie& fib,
                       const std::vector<Route>& table, Pcg32& rng) {
  BinaryTrie image;
  for (const auto& route : table) image.insert(route.prefix, route.next_hop);
  // Probe every region boundary plus random addresses.
  fib.for_each_route([&](const netbase::Route& route) {
    for (const Ipv4Address address :
         {route.prefix.range_low(), route.prefix.range_high()}) {
      ASSERT_EQ(image.lookup(address), fib.lookup(address))
          << "boundary " << address.to_string();
    }
  });
  for (int i = 0; i < 2000; ++i) {
    const Ipv4Address address(rng.next());
    ASSERT_EQ(image.lookup(address), fib.lookup(address))
        << address.to_string();
  }
}

// ---------------------------------------------------------------------------

TEST(Onrtc, EmptyTableCompressesToNothing) {
  EXPECT_TRUE(compress(BinaryTrie()).empty());
}

TEST(Onrtc, SingleRouteIsItsOwnCompression) {
  BinaryTrie fib;
  fib.insert(p("10.0.0.0/8"), make_next_hop(1));
  const auto table = compress(fib);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0], (Route{p("10.0.0.0/8"), make_next_hop(1)}));
}

TEST(Onrtc, ChildWithSameHopMergesIntoParent) {
  BinaryTrie fib;
  fib.insert(p("10.0.0.0/8"), make_next_hop(1));
  fib.insert(p("10.1.0.0/16"), make_next_hop(1));
  const auto table = compress(fib);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0].prefix, p("10.0.0.0/8"));
}

TEST(Onrtc, SiblingsWithSameHopMerge) {
  BinaryTrie fib;
  fib.insert(p("10.0.0.0/9"), make_next_hop(3));
  fib.insert(p("10.128.0.0/9"), make_next_hop(3));
  const auto table = compress(fib);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0], (Route{p("10.0.0.0/8"), make_next_hop(3)}));
}

TEST(Onrtc, DifferingChildPunchesHole) {
  // 1* -> A with 100000-ish child -> B (the paper's Fig. 2 shape):
  // leaf-pushing splits the parent remainder into disjoint pieces.
  BinaryTrie fib;
  fib.insert(p("128.0.0.0/1"), make_next_hop(1));
  fib.insert(p("128.0.0.0/3"), make_next_hop(2));
  const auto table = compress(fib);
  // Remainder of /1 minus /3: the /2 sibling at 192.0.0.0/2 and the /3
  // sibling at 160.0.0.0/3, plus the /3 itself.
  ASSERT_EQ(table.size(), 3u);
  BinaryTrie image;
  for (const auto& route : table) image.insert(route.prefix, route.next_hop);
  EXPECT_EQ(image.lookup(Ipv4Address::from_octets(128, 0, 0, 1)),
            make_next_hop(2));
  EXPECT_EQ(image.lookup(Ipv4Address::from_octets(161, 0, 0, 0)),
            make_next_hop(1));
  EXPECT_EQ(image.lookup(Ipv4Address::from_octets(200, 0, 0, 0)),
            make_next_hop(1));
  EXPECT_EQ(image.lookup(Ipv4Address::from_octets(1, 0, 0, 0)), kNoRoute);
}

TEST(Onrtc, DefaultRouteCompressesToSingleEntry) {
  BinaryTrie fib;
  fib.insert(Prefix(), make_next_hop(9));
  fib.insert(p("10.0.0.0/8"), make_next_hop(9));
  const auto table = compress(fib);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_EQ(table[0].prefix, Prefix());
}

TEST(Onrtc, OutputIsAlwaysDisjoint) {
  Pcg32 rng(11);
  for (int round = 0; round < 20; ++round) {
    const auto fib = random_fib(rng, 60, 8, 20, 4);
    BinaryTrie image;
    for (const auto& route : compress(fib)) {
      image.insert(route.prefix, route.next_hop);
    }
    EXPECT_TRUE(image.is_disjoint());
  }
}

TEST(Onrtc, OutputIsSorted) {
  Pcg32 rng(13);
  const auto fib = random_fib(rng, 200, 8, 24, 8);
  const auto table = compress(fib);
  EXPECT_TRUE(std::is_sorted(table.begin(), table.end()));
}

TEST(Onrtc, SemanticsPreservedOnRandomTables) {
  Pcg32 rng(17);
  for (int round = 0; round < 10; ++round) {
    const auto fib = random_fib(rng, 150, 8, 26, 6);
    expect_equivalent(fib, compress(fib), rng);
  }
}

TEST(Onrtc, MatchesIndependentOptimalityOracle) {
  Pcg32 rng(19);
  for (int round = 0; round < 30; ++round) {
    const auto fib = random_fib(rng, 40, 6, 16, 3);
    const auto table = compress(fib);
    EXPECT_EQ(table.size(), oracle_min_disjoint(fib)) << "round " << round;
  }
}

TEST(Onrtc, OracleAgreesOnDenseDeepTables) {
  Pcg32 rng(23);
  for (int round = 0; round < 10; ++round) {
    const auto fib = random_fib(rng, 120, 10, 28, 2);
    EXPECT_EQ(compress(fib).size(), oracle_min_disjoint(fib));
  }
}

TEST(Onrtc, CompressionIsIdempotent) {
  Pcg32 rng(29);
  const auto fib = random_fib(rng, 300, 8, 24, 5);
  const auto once = compress(fib);
  BinaryTrie image;
  for (const auto& route : once) image.insert(route.prefix, route.next_hop);
  const auto twice = compress(image);
  EXPECT_EQ(once, twice);
}

TEST(Onrtc, StatsReportSizes) {
  BinaryTrie fib;
  fib.insert(p("10.0.0.0/9"), make_next_hop(3));
  fib.insert(p("10.128.0.0/9"), make_next_hop(3));
  const auto result = compress_with_stats(fib);
  EXPECT_EQ(result.stats.original_routes, 2u);
  EXPECT_EQ(result.stats.compressed_routes, 1u);
  EXPECT_DOUBLE_EQ(result.stats.ratio(), 0.5);
}

TEST(Onrtc, GeneratedRibCompressesNearPaperRatio) {
  workload::RibConfig config;
  config.table_size = 30'000;
  config.seed = 5;
  const auto fib = workload::generate_rib(config);
  const auto result = compress_with_stats(fib);
  // Paper: 71% on real 2011 RIBs. The generator is calibrated to land in
  // the same regime; accept a generous band.
  EXPECT_GT(result.stats.ratio(), 0.5);
  EXPECT_LT(result.stats.ratio(), 0.9);
}

TEST(Onrtc, NoRouteSpaceStaysUncovered) {
  BinaryTrie fib;
  fib.insert(p("10.0.0.0/8"), make_next_hop(1));
  const auto table = compress(fib);
  BinaryTrie image;
  for (const auto& route : table) image.insert(route.prefix, route.next_hop);
  EXPECT_EQ(image.lookup(Ipv4Address::from_octets(11, 0, 0, 0)), kNoRoute);
  EXPECT_EQ(image.lookup(Ipv4Address::from_octets(9, 255, 255, 255)),
            kNoRoute);
}

// Reference: post-order emission (both halves walked first, then the
// node's constant child regions appended), sorted afterwards.
std::optional<NextHop> post_order_regions(BinaryTrie::NodeRef node,
                                          const Prefix& at,
                                          NextHop inherited,
                                          std::vector<Route>& out) {
  if (!node) return inherited;
  const NextHop effective = node.next_hop_or(inherited);
  if (node.is_leaf()) return effective;
  const auto left = post_order_regions(node.child(0), at.child(0), effective,
                                       out);
  const auto right = post_order_regions(node.child(1), at.child(1),
                                        effective, out);
  if (left && right && *left == *right) return left;
  if (left && *left != kNoRoute) out.push_back(Route{at.child(0), *left});
  if (right && *right != kNoRoute) out.push_back(Route{at.child(1), *right});
  return std::nullopt;
}

TEST(Onrtc, EmitsInOrderAndMatchesSortedPostOrderOnTableIRouters) {
  for (const auto& router : workload::paper_routers()) {
    const BinaryTrie fib = workload::generate_rib(router);
    std::vector<Route> reference;
    const auto constant =
        post_order_regions(fib.root(), Prefix(), kNoRoute, reference);
    if (constant && *constant != kNoRoute) {
      reference.push_back(Route{Prefix(), *constant});
    }
    std::sort(reference.begin(), reference.end());

    const auto table = compress(fib);
    EXPECT_TRUE(std::is_sorted(table.begin(), table.end())) << router.id;
    EXPECT_EQ(table, reference) << router.id;
  }
}

}  // namespace
}  // namespace clue::onrtc
