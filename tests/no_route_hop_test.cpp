// A route whose next hop is kNoRoute is still a route: it is counted,
// found by exact match, and as the longest match it shadows a covering
// route (the address answers kNoRoute). These tests pin that meaning for
// the trie and for the incremental ONRTC on top of it.
#include <gtest/gtest.h>

#include "onrtc/compressed_fib.hpp"
#include "trie/binary_trie.hpp"

namespace clue {
namespace {

using netbase::Ipv4Address;
using netbase::kNoRoute;
using netbase::make_next_hop;
using netbase::Prefix;
using netbase::Route;
using onrtc::FibOpKind;

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

TEST(NoRouteHop, TrieCountsFindsAndShadowsIt) {
  trie::BinaryTrie trie;
  trie.insert(p("10.0.0.0/8"), make_next_hop(1));
  EXPECT_TRUE(trie.insert(p("10.1.0.0/16"), kNoRoute));  // created
  EXPECT_FALSE(trie.insert(p("10.1.0.0/16"), kNoRoute));  // overwrite
  EXPECT_EQ(trie.size(), 2u);
  ASSERT_TRUE(trie.find(p("10.1.0.0/16")).has_value());
  EXPECT_EQ(*trie.find(p("10.1.0.0/16")), kNoRoute);

  // The kNoRoute route is the longest match and shadows 10/8.
  EXPECT_EQ(trie.lookup(a("10.1.2.3")), kNoRoute);
  const auto matched = trie.lookup_route(a("10.1.2.3"));
  ASSERT_TRUE(matched.has_value());
  EXPECT_EQ(*matched, (Route{p("10.1.0.0/16"), kNoRoute}));
  EXPECT_EQ(trie.lookup(a("10.2.0.1")), make_next_hop(1));
  EXPECT_EQ(trie.longest_match_above(p("10.1.2.0/24")), kNoRoute);
  EXPECT_FALSE(trie.is_disjoint());

  const auto routes = trie.routes();
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_EQ(routes[1], (Route{p("10.1.0.0/16"), kNoRoute}));

  EXPECT_TRUE(trie.erase(p("10.1.0.0/16")));
  EXPECT_FALSE(trie.find(p("10.1.0.0/16")).has_value());
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(trie.lookup(a("10.1.2.3")), make_next_hop(1));
  EXPECT_FALSE(trie.erase(p("10.1.0.0/16")));
}

TEST(NoRouteHop, TrieHoldsItAlone) {
  trie::BinaryTrie trie;
  EXPECT_TRUE(trie.insert(p("0.0.0.0/0"), kNoRoute));
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_FALSE(trie.empty());
  EXPECT_EQ(trie.node_count(), 1u);
  EXPECT_EQ(trie.find(p("0.0.0.0/0")), kNoRoute);
  EXPECT_EQ(trie.lookup(a("1.2.3.4")), kNoRoute);
  EXPECT_TRUE(trie.lookup_route(a("1.2.3.4")).has_value());
  EXPECT_TRUE(trie.erase(p("0.0.0.0/0")));
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.node_count(), 0u);
}

TEST(NoRouteHop, CompressedFibPunchesAndHealsAHole) {
  trie::BinaryTrie truth;
  truth.insert(p("10.0.0.0/8"), make_next_hop(1));
  onrtc::CompressedFib fib(truth);

  // Announcing kNoRoute under 10/8 cuts a hole: 10/8 splits into the
  // eight path siblings of 10.1/16, and 10.1/16 itself is not covered.
  const auto punched = fib.announce(p("10.1.0.0/16"), kNoRoute);
  ASSERT_EQ(punched.size(), 9u);
  EXPECT_EQ(punched.front().kind, FibOpKind::kDelete);
  EXPECT_EQ(punched.front().route, (Route{p("10.0.0.0/8"), make_next_hop(1)}));
  for (std::size_t i = 1; i < punched.size(); ++i) {
    EXPECT_EQ(punched[i].kind, FibOpKind::kInsert);
    EXPECT_EQ(punched[i].route.next_hop, make_next_hop(1));
  }
  EXPECT_EQ(fib.size(), 8u);
  EXPECT_EQ(fib.ground_truth().size(), 2u);
  EXPECT_EQ(fib.ground_truth().find(p("10.1.0.0/16")), kNoRoute);
  EXPECT_EQ(fib.lookup(a("10.1.2.3")), kNoRoute);
  EXPECT_EQ(fib.lookup(a("10.2.0.1")), make_next_hop(1));
  EXPECT_EQ(fib.compressed().routes(), onrtc::compress(fib.ground_truth()));

  // Re-announcing the same kNoRoute route is a duplicate.
  EXPECT_TRUE(fib.announce(p("10.1.0.0/16"), kNoRoute).empty());

  // Withdrawing it merges the siblings back into 10/8.
  const auto healed = fib.withdraw(p("10.1.0.0/16"));
  ASSERT_EQ(healed.size(), 9u);
  EXPECT_EQ(fib.compressed().routes(),
            (std::vector<Route>{{p("10.0.0.0/8"), make_next_hop(1)}}));
  EXPECT_EQ(fib.lookup(a("10.1.2.3")), make_next_hop(1));
  EXPECT_EQ(fib.ground_truth().size(), 1u);
}

TEST(NoRouteHop, CompressedFibKeepsAnUncoveredOneOutOfTheTable) {
  onrtc::CompressedFib fib;
  EXPECT_TRUE(fib.announce(p("20.0.0.0/8"), kNoRoute).empty());
  EXPECT_EQ(fib.ground_truth().size(), 1u);
  EXPECT_EQ(fib.size(), 0u);
  EXPECT_EQ(fib.lookup(a("20.1.1.1")), kNoRoute);

  // A covering route announced later stays shadowed inside 20/8.
  const auto ops = fib.announce(p("20.0.0.0/7"), make_next_hop(4));
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].route, (Route{p("21.0.0.0/8"), make_next_hop(4)}));
  EXPECT_EQ(fib.lookup(a("20.1.1.1")), kNoRoute);
  EXPECT_EQ(fib.lookup(a("21.1.1.1")), make_next_hop(4));
  EXPECT_TRUE(fib.withdraw(p("20.0.0.0/8")).size() == 2u);
  EXPECT_EQ(fib.compressed().routes(),
            (std::vector<Route>{{p("20.0.0.0/7"), make_next_hop(4)}}));
}

}  // namespace
}  // namespace clue
