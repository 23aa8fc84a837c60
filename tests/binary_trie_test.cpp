#include "trie/binary_trie.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "netbase/rng.hpp"

namespace clue::trie {
namespace {

using netbase::Ipv4Address;
using netbase::kNoRoute;
using netbase::make_next_hop;
using netbase::Pcg32;

Prefix p(const char* text) {
  const auto parsed = Prefix::parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return *parsed;
}

Ipv4Address a(const char* text) {
  const auto parsed = Ipv4Address::parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return *parsed;
}

TEST(BinaryTrie, EmptyTrieHasNoRoutes) {
  BinaryTrie trie;
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.size(), 0u);
  EXPECT_EQ(trie.node_count(), 0u);
  EXPECT_EQ(trie.lookup(a("1.2.3.4")), kNoRoute);
  EXPECT_TRUE(trie.is_disjoint());
}

TEST(BinaryTrie, InsertThenLookup) {
  BinaryTrie trie;
  EXPECT_TRUE(trie.insert(p("10.0.0.0/8"), make_next_hop(1)));
  EXPECT_EQ(trie.lookup(a("10.20.30.40")), make_next_hop(1));
  EXPECT_EQ(trie.lookup(a("11.0.0.0")), kNoRoute);
}

TEST(BinaryTrie, InsertReturnsFalseOnOverwrite) {
  BinaryTrie trie;
  EXPECT_TRUE(trie.insert(p("10.0.0.0/8"), make_next_hop(1)));
  EXPECT_FALSE(trie.insert(p("10.0.0.0/8"), make_next_hop(2)));
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(trie.lookup(a("10.0.0.1")), make_next_hop(2));
}

TEST(BinaryTrie, LongestPrefixWins) {
  BinaryTrie trie;
  trie.insert(p("10.0.0.0/8"), make_next_hop(1));
  trie.insert(p("10.1.0.0/16"), make_next_hop(2));
  trie.insert(p("10.1.2.0/24"), make_next_hop(3));
  EXPECT_EQ(trie.lookup(a("10.1.2.3")), make_next_hop(3));
  EXPECT_EQ(trie.lookup(a("10.1.9.9")), make_next_hop(2));
  EXPECT_EQ(trie.lookup(a("10.9.9.9")), make_next_hop(1));
}

TEST(BinaryTrie, DefaultRouteMatchesEverything) {
  BinaryTrie trie;
  trie.insert(Prefix(), make_next_hop(42));
  EXPECT_EQ(trie.lookup(a("0.0.0.0")), make_next_hop(42));
  EXPECT_EQ(trie.lookup(a("255.255.255.255")), make_next_hop(42));
}

TEST(BinaryTrie, HostRouteMatchesSingleAddress) {
  BinaryTrie trie;
  trie.insert(p("1.2.3.4/32"), make_next_hop(5));
  EXPECT_EQ(trie.lookup(a("1.2.3.4")), make_next_hop(5));
  EXPECT_EQ(trie.lookup(a("1.2.3.5")), kNoRoute);
}

TEST(BinaryTrie, EraseRemovesAndPrunes) {
  BinaryTrie trie;
  trie.insert(p("10.1.2.0/24"), make_next_hop(1));
  const std::size_t nodes_before = trie.node_count();
  EXPECT_GT(nodes_before, 20u);
  EXPECT_TRUE(trie.erase(p("10.1.2.0/24")));
  EXPECT_EQ(trie.size(), 0u);
  EXPECT_EQ(trie.node_count(), 0u);
  EXPECT_FALSE(trie.erase(p("10.1.2.0/24")));
}

TEST(BinaryTrie, ErasePreservesOtherRoutes) {
  BinaryTrie trie;
  trie.insert(p("10.0.0.0/8"), make_next_hop(1));
  trie.insert(p("10.1.0.0/16"), make_next_hop(2));
  EXPECT_TRUE(trie.erase(p("10.1.0.0/16")));
  EXPECT_EQ(trie.lookup(a("10.1.0.1")), make_next_hop(1));
  EXPECT_EQ(trie.size(), 1u);
}

TEST(BinaryTrie, EraseMissingIsNoop) {
  BinaryTrie trie;
  trie.insert(p("10.0.0.0/8"), make_next_hop(1));
  EXPECT_FALSE(trie.erase(p("10.0.0.0/16")));
  EXPECT_FALSE(trie.erase(p("11.0.0.0/8")));
  EXPECT_EQ(trie.size(), 1u);
}

TEST(BinaryTrie, FindIsExactNotLpm) {
  BinaryTrie trie;
  trie.insert(p("10.0.0.0/8"), make_next_hop(1));
  EXPECT_EQ(trie.find(p("10.0.0.0/8")), make_next_hop(1));
  EXPECT_EQ(trie.find(p("10.0.0.0/16")), std::nullopt);
  EXPECT_EQ(trie.find(p("10.0.0.0/7")), std::nullopt);
}

TEST(BinaryTrie, RoutesAreInOrder) {
  BinaryTrie trie;
  trie.insert(p("192.0.2.0/24"), make_next_hop(1));
  trie.insert(p("10.0.0.0/8"), make_next_hop(2));
  trie.insert(p("10.0.0.0/16"), make_next_hop(3));
  trie.insert(p("10.128.0.0/9"), make_next_hop(4));
  const auto routes = trie.routes();
  ASSERT_EQ(routes.size(), 4u);
  EXPECT_TRUE(std::is_sorted(routes.begin(), routes.end()));
  EXPECT_EQ(routes[0].prefix, p("10.0.0.0/8"));
  EXPECT_EQ(routes[1].prefix, p("10.0.0.0/16"));
  EXPECT_EQ(routes[2].prefix, p("10.128.0.0/9"));
  EXPECT_EQ(routes[3].prefix, p("192.0.2.0/24"));
}

TEST(BinaryTrie, IsDisjointDetectsNesting) {
  BinaryTrie trie;
  trie.insert(p("10.0.0.0/8"), make_next_hop(1));
  trie.insert(p("11.0.0.0/8"), make_next_hop(2));
  EXPECT_TRUE(trie.is_disjoint());
  trie.insert(p("10.1.0.0/16"), make_next_hop(3));
  EXPECT_FALSE(trie.is_disjoint());
}

TEST(BinaryTrie, CopyIsDeep) {
  BinaryTrie trie;
  trie.insert(p("10.0.0.0/8"), make_next_hop(1));
  BinaryTrie copy(trie);
  copy.insert(p("11.0.0.0/8"), make_next_hop(2));
  copy.erase(p("10.0.0.0/8"));
  EXPECT_EQ(trie.lookup(a("10.0.0.1")), make_next_hop(1));
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(copy.size(), 1u);
}

TEST(BinaryTrie, NodeAtAndRoutesWithin) {
  BinaryTrie trie;
  trie.insert(p("10.0.0.0/8"), make_next_hop(1));
  trie.insert(p("10.1.0.0/16"), make_next_hop(2));
  trie.insert(p("10.1.2.0/24"), make_next_hop(3));
  EXPECT_NE(trie.node_at(p("10.0.0.0/8")), nullptr);
  EXPECT_EQ(trie.node_at(p("11.0.0.0/8")), nullptr);
  const auto within = trie.routes_within(p("10.1.0.0/16"));
  ASSERT_EQ(within.size(), 2u);
  EXPECT_EQ(within[0].prefix, p("10.1.0.0/16"));
  EXPECT_EQ(within[1].prefix, p("10.1.2.0/24"));
}

TEST(BinaryTrie, LongestMatchAboveExcludesSelf) {
  BinaryTrie trie;
  trie.insert(p("10.0.0.0/8"), make_next_hop(1));
  trie.insert(p("10.1.0.0/16"), make_next_hop(2));
  EXPECT_EQ(trie.longest_match_above(p("10.1.0.0/16")), make_next_hop(1));
  EXPECT_EQ(trie.longest_match_above(p("10.1.2.0/24")), make_next_hop(2));
  EXPECT_EQ(trie.longest_match_above(p("10.0.0.0/8")), kNoRoute);
}

TEST(BinaryTrie, ForEachMatchVisitsAllAncestors) {
  BinaryTrie trie;
  trie.insert(p("10.0.0.0/8"), make_next_hop(1));
  trie.insert(p("10.1.0.0/16"), make_next_hop(2));
  trie.insert(p("10.1.2.0/24"), make_next_hop(3));
  trie.insert(p("99.0.0.0/8"), make_next_hop(4));
  std::vector<Route> matches;
  trie.for_each_match(a("10.1.2.3"),
                      [&](const Route& route) { matches.push_back(route); });
  ASSERT_EQ(matches.size(), 3u);
  EXPECT_EQ(matches[0].prefix.length(), 8u);
  EXPECT_EQ(matches[2].prefix.length(), 24u);
}

TEST(BinaryTrie, RandomizedDifferentialAgainstLinearFib) {
  Pcg32 rng(2024);
  BinaryTrie trie;
  LinearFib oracle;
  for (int step = 0; step < 4000; ++step) {
    const Prefix prefix(Ipv4Address(rng.next()), 4 + rng.next_below(29));
    if (rng.chance(0.7)) {
      const auto hop = make_next_hop(1 + rng.next_below(16));
      trie.insert(prefix, hop);
      oracle.insert(prefix, hop);
    } else {
      EXPECT_EQ(trie.erase(prefix), oracle.erase(prefix));
    }
    if (step % 50 == 0) {
      for (int probe = 0; probe < 20; ++probe) {
        const Ipv4Address address(rng.next());
        ASSERT_EQ(trie.lookup(address), oracle.lookup(address))
            << "step " << step << " addr " << address.to_string();
      }
    }
  }
  EXPECT_EQ(trie.size(), oracle.size());
}

TEST(BinaryTrie, LookupRouteReturnsMatchedPrefix) {
  BinaryTrie trie;
  trie.insert(p("10.0.0.0/8"), make_next_hop(1));
  trie.insert(p("10.1.0.0/16"), make_next_hop(2));
  const auto route = trie.lookup_route(a("10.1.200.1"));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->prefix, p("10.1.0.0/16"));
  EXPECT_EQ(route->next_hop, make_next_hop(2));
  EXPECT_FALSE(trie.lookup_route(a("12.0.0.1")).has_value());
}

TEST(BinaryTrie, ClearEmptiesEverything) {
  BinaryTrie trie;
  trie.insert(p("10.0.0.0/8"), make_next_hop(1));
  trie.insert(p("11.0.0.0/8"), make_next_hop(2));
  trie.clear();
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.node_count(), 0u);
  EXPECT_EQ(trie.lookup(a("10.0.0.1")), kNoRoute);
}

// ---- index arena ---------------------------------------------------------

std::vector<Route> random_routes(Pcg32& rng, std::size_t count) {
  std::vector<Route> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(Route{Prefix(Ipv4Address(rng.next()), rng.next_below(33)),
                        make_next_hop(1 + rng.next_below(16))});
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Route& x, const Route& y) {
                          return x.prefix == y.prefix;
                        }),
            out.end());
  return out;
}

TEST(BinaryTrie, ChurnReusesFreedSlotsAndMatchesLinearFib) {
  Pcg32 rng(8080);
  BinaryTrie trie;
  LinearFib oracle;
  std::vector<Prefix> live;
  std::size_t peak_nodes = 0;
  for (int step = 0; step < 20'000; ++step) {
    // Phases of growth and shrinkage, so freed slots are reused at scale.
    const bool grow = (step / 2'000) % 2 == 0;
    if (live.empty() || rng.chance(grow ? 0.8 : 0.2)) {
      const Prefix prefix(Ipv4Address(rng.next()), 8 + rng.next_below(25));
      const auto hop = make_next_hop(1 + rng.next_below(8));
      if (trie.insert(prefix, hop)) live.push_back(prefix);
      oracle.insert(prefix, hop);
    } else {
      const std::size_t victim = rng.next_below(
          static_cast<std::uint32_t>(live.size()));
      ASSERT_TRUE(trie.erase(live[victim]));
      ASSERT_TRUE(oracle.erase(live[victim]));
      live[victim] = live.back();
      live.pop_back();
    }
    peak_nodes = std::max(peak_nodes, trie.node_count());
    // A fresh slot is taken only when the free list is empty, so the
    // arena never outgrows the peak live node count (plus slot 0).
    ASSERT_EQ(trie.arena_slots(), peak_nodes + 1) << "step " << step;
    if (step % 500 == 0) {
      for (int probe = 0; probe < 50; ++probe) {
        const Ipv4Address address(rng.next());
        ASSERT_EQ(trie.lookup(address), oracle.lookup(address));
      }
    }
  }
  EXPECT_EQ(trie.size(), oracle.size());
  EXPECT_LT(trie.node_count(), peak_nodes);  // the churn did shrink it
  auto expected = oracle.routes();
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(trie.routes(), expected);
}

TEST(BinaryTrie, CopiesMutatedOnBothSidesStayIndependent) {
  Pcg32 rng(8181);
  BinaryTrie original;
  LinearFib original_oracle;
  for (const Route& route : random_routes(rng, 3'000)) {
    original.insert(route.prefix, route.next_hop);
    original_oracle.insert(route.prefix, route.next_hop);
  }
  // Free slots before the copy, so both sides start on the same list.
  const auto seeded = original.routes();
  for (std::size_t i = 0; i < seeded.size(); i += 3) {
    original.erase(seeded[i].prefix);
    original_oracle.erase(seeded[i].prefix);
  }
  BinaryTrie copy = original;
  LinearFib copy_oracle = original_oracle;
  EXPECT_EQ(copy.routes(), original.routes());
  EXPECT_EQ(copy.node_count(), original.node_count());

  const auto mutate = [&rng](BinaryTrie& trie, LinearFib& oracle) {
    for (int step = 0; step < 2'000; ++step) {
      const Prefix prefix(Ipv4Address(rng.next()), rng.next_below(33));
      if (rng.chance(0.6)) {
        const auto hop = make_next_hop(1 + rng.next_below(16));
        trie.insert(prefix, hop);
        oracle.insert(prefix, hop);
      } else {
        const auto routes = oracle.routes();
        if (routes.empty()) continue;
        const Prefix victim =
            routes[rng.next_below(static_cast<std::uint32_t>(routes.size()))]
                .prefix;
        ASSERT_TRUE(trie.erase(victim));
        oracle.erase(victim);
      }
    }
  };
  mutate(original, original_oracle);
  mutate(copy, copy_oracle);
  for (auto [trie, oracle] : {std::pair{&original, &original_oracle},
                              std::pair{&copy, &copy_oracle}}) {
    auto expected = oracle->routes();
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(trie->routes(), expected);
    for (int probe = 0; probe < 2'000; ++probe) {
      const Ipv4Address address(rng.next());
      ASSERT_EQ(trie->lookup(address), oracle->lookup(address));
    }
  }
  EXPECT_NE(original.routes(), copy.routes());
}

TEST(BinaryTrie, BulkBuildEqualsInsertBuild) {
  Pcg32 rng(8282);
  for (const std::size_t count : {0u, 1u, 7u, 500u, 20'000u}) {
    const auto routes = random_routes(rng, count);  // nested ones included
    BinaryTrie inserted;
    for (const Route& route : routes) {
      inserted.insert(route.prefix, route.next_hop);
    }
    const BinaryTrie bulk(routes);
    EXPECT_EQ(bulk.routes(), inserted.routes()) << count;
    EXPECT_EQ(bulk.size(), inserted.size());
    EXPECT_EQ(bulk.node_count(), inserted.node_count());
    EXPECT_EQ(bulk.is_disjoint(), inserted.is_disjoint());
    for (int probe = 0; probe < 2'000; ++probe) {
      const Ipv4Address address(rng.next());
      ASSERT_EQ(bulk.lookup(address), inserted.lookup(address));
      ASSERT_EQ(bulk.lookup_route(address), inserted.lookup_route(address));
    }
    // The bulk-built trie takes ordinary updates afterwards.
    BinaryTrie grown = bulk;
    grown.insert(p("10.1.2.0/24"), make_next_hop(99));
    EXPECT_EQ(grown.lookup(a("10.1.2.3")), make_next_hop(99));
  }
}

TEST(BinaryTrie, BulkBuildRejectsUnsortedOrDuplicateRoutes) {
  const std::vector<Route> unsorted{{p("11.0.0.0/8"), make_next_hop(1)},
                                    {p("10.0.0.0/8"), make_next_hop(2)}};
  EXPECT_THROW(BinaryTrie{unsorted}, std::invalid_argument);
  const std::vector<Route> duplicate{{p("10.0.0.0/8"), make_next_hop(1)},
                                     {p("10.0.0.0/8"), make_next_hop(2)}};
  EXPECT_THROW(BinaryTrie{duplicate}, std::invalid_argument);
}

TEST(BinaryTrie, MemoryBytesCountsTwelveByteSlots) {
  BinaryTrie trie;
  EXPECT_EQ(trie.memory_bytes(), 0u);
  Pcg32 rng(8383);
  const auto routes = random_routes(rng, 50'000);
  for (const Route& route : routes) {
    trie.insert(route.prefix, route.next_hop);
    ASSERT_EQ(trie.memory_bytes() % 12, 0u);
    ASSERT_GE(trie.memory_bytes(), 12 * trie.arena_slots());
  }
  // A copy and a bulk build hold their slots plus 1/8 headroom.
  const auto headroom_bytes = [](std::size_t slots) {
    return 12 * (slots + slots / 8);
  };
  const BinaryTrie copy = trie;
  EXPECT_EQ(copy.arena_slots(), trie.arena_slots());
  EXPECT_EQ(copy.memory_bytes(), headroom_bytes(copy.arena_slots()));
  const BinaryTrie bulk(routes);
  EXPECT_EQ(bulk.memory_bytes(), headroom_bytes(bulk.arena_slots()));
  // The headroom absorbs growth: a fresh copy's first inserts do not
  // reallocate the arena.
  BinaryTrie grown = copy;
  const std::size_t before = grown.memory_bytes();
  for (int i = 0; i < 100; ++i) {
    grown.insert(Prefix(Ipv4Address(rng.next()), 32), make_next_hop(1));
  }
  EXPECT_EQ(grown.memory_bytes(), before);
  trie.clear();
  EXPECT_EQ(trie.memory_bytes(), 0u);
  EXPECT_EQ(trie.arena_slots(), 0u);
}

TEST(BinaryTrie, GrowingPastTheSpareSlotsCountsOneGrowth) {
  Pcg32 rng(8389);
  const BinaryTrie bulk(random_routes(rng, 20'000));
  EXPECT_EQ(bulk.growths(), 0u);
  BinaryTrie trie = bulk;
  EXPECT_EQ(trie.growths(), 0u);
  const std::size_t spare_slots = trie.memory_bytes() / 12;
  const std::size_t before = trie.memory_bytes();
  // A bulk-built arena has no free slots, so each new node takes a fresh
  // one; stop on the first insert that needs a slot past the reserve.
  while (trie.arena_slots() <= spare_slots) {
    ASSERT_EQ(trie.growths(), 0u);
    trie.insert(Prefix(Ipv4Address(rng.next()), 32), make_next_hop(1));
  }
  EXPECT_EQ(trie.growths(), 1u);
  EXPECT_GT(trie.memory_bytes(), before);
  // A copy's arena is new: it starts with no growths; a move keeps them.
  EXPECT_EQ(BinaryTrie(trie).growths(), 0u);
  const BinaryTrie moved = std::move(trie);
  EXPECT_EQ(moved.growths(), 1u);
}

// insert_along/erase_along continue a descent recorded to an arbitrary
// depth; they must leave the same trie, nodes included, as insert/erase
// from the root.
TEST(BinaryTrie, PathContinuedUpdatesMatchRootUpdates) {
  Pcg32 rng(8393);
  BinaryTrie along;
  BinaryTrie plain;
  for (int step = 0; step < 20'000; ++step) {
    // Prefixes crowd under one /8 so updates share and prune paths.
    const Prefix prefix(Ipv4Address(0x0A000000u | (rng.next() & 0xFFFFFFu)),
                        8 + rng.next_below(25));
    BinaryTrie::Path path;
    const unsigned known = rng.next_below(prefix.length() + 1);
    auto node = along.root();
    path[0] = node.index();
    for (unsigned depth = 0; depth < known; ++depth) {
      if (node) node = node.child(prefix.bit(depth));
      path[depth + 1] = node.index();
    }
    if (rng.chance(0.55)) {
      const NextHop hop = make_next_hop(1 + rng.next_below(4));
      ASSERT_EQ(along.insert_along(path, known, prefix, hop),
                plain.insert(prefix, hop));
      ASSERT_EQ(path[prefix.length()], along.node_at(prefix).index());
    } else {
      ASSERT_EQ(along.erase_along(path, known, prefix), plain.erase(prefix));
    }
    ASSERT_EQ(along.size(), plain.size());
    ASSERT_EQ(along.node_count(), plain.node_count()) << "step " << step;
  }
  EXPECT_EQ(along.routes(), plain.routes());
}

TEST(BinaryTrie, NodeRefWalksTheStructure) {
  BinaryTrie trie;
  trie.insert(p("128.0.0.0/1"), make_next_hop(1));
  trie.insert(p("192.0.0.0/2"), make_next_hop(2));
  const auto root = trie.root();
  ASSERT_TRUE(root);
  EXPECT_FALSE(root.has_route());
  EXPECT_FALSE(root.child(0));
  const auto half = root.child(1);
  ASSERT_TRUE(half);
  EXPECT_EQ(half.next_hop(), make_next_hop(1));
  EXPECT_EQ(half.next_hop_or(make_next_hop(7)), make_next_hop(1));
  EXPECT_FALSE(half.is_leaf());
  const auto quarter = half.child(1);
  EXPECT_TRUE(quarter.is_leaf());
  EXPECT_EQ(root.next_hop_or(make_next_hop(7)), make_next_hop(7));
  EXPECT_LT(quarter.index(), trie.arena_slots());
  EXPECT_EQ(trie.nodes_within(p("128.0.0.0/1")), 2u);
  EXPECT_EQ(trie.nodes_within(Prefix()), 3u);
  EXPECT_EQ(trie.nodes_within(p("0.0.0.0/1")), 0u);
  EXPECT_TRUE(BinaryTrie().root() == nullptr);
}

}  // namespace
}  // namespace clue::trie
