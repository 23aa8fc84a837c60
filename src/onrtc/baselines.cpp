#include "onrtc/baselines.hpp"

#include <algorithm>
#include <vector>

namespace clue::onrtc {

using netbase::NextHop;
using netbase::Prefix;
using netbase::Route;
using trie::BinaryTrie;

namespace {

void leaf_push_node(BinaryTrie::NodeRef node, const Prefix& at,
                    NextHop inherited, std::vector<Route>& out) {
  if (!node) {
    if (inherited != netbase::kNoRoute) out.push_back(Route{at, inherited});
    return;
  }
  const NextHop effective = node.next_hop_or(inherited);
  if (node.is_leaf()) {
    if (effective != netbase::kNoRoute) out.push_back(Route{at, effective});
    return;
  }
  leaf_push_node(node.child(0), at.child(0), effective, out);
  leaf_push_node(node.child(1), at.child(1), effective, out);
}

}  // namespace

std::vector<Route> leaf_push(const trie::BinaryTrie& fib) {
  std::vector<Route> out;
  if (!fib.root()) return out;
  leaf_push_node(fib.root(), Prefix(), netbase::kNoRoute, out);
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// ORTC (Draves et al. 1999). "No route" participates as an ordinary
// next-hop value, so default-free tables compress correctly; an emitted
// kNoRoute entry models the null/drop TCAM entry a real deployment
// would install to punch a hole in a shorter covering prefix.

namespace {

// Sorted small set of next hops.
using HopSet = std::vector<NextHop>;

HopSet intersect(const HopSet& a, const HopSet& b) {
  HopSet out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

HopSet unite(const HopSet& a, const HopSet& b) {
  HopSet out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

bool contains(const HopSet& set, NextHop hop) {
  return std::binary_search(set.begin(), set.end(), hop);
}

struct OrtcNode {
  std::ptrdiff_t child[2] = {-1, -1};  // -1 = absent (uniform leaf)
  HopSet candidates;
};

// Pass 1 (bottom-up): build the candidate-set tree over the normalized
// (conceptually full) trie. Missing subtrees are uniform leaves whose
// value is the inherited LPM answer.
std::ptrdiff_t build(BinaryTrie::NodeRef node, NextHop inherited,
                     std::vector<OrtcNode>& pool) {
  OrtcNode result;
  if (!node) {
    result.candidates = {inherited};
    pool.push_back(std::move(result));
    return static_cast<std::ptrdiff_t>(pool.size()) - 1;
  }
  const NextHop effective = node.next_hop_or(inherited);
  if (node.is_leaf()) {
    result.candidates = {effective};
    pool.push_back(std::move(result));
    return static_cast<std::ptrdiff_t>(pool.size()) - 1;
  }
  result.child[0] = build(node.child(0), effective, pool);
  result.child[1] = build(node.child(1), effective, pool);
  const auto& left = pool[static_cast<std::size_t>(result.child[0])];
  const auto& right = pool[static_cast<std::size_t>(result.child[1])];
  auto common = intersect(left.candidates, right.candidates);
  result.candidates = common.empty()
                          ? unite(left.candidates, right.candidates)
                          : std::move(common);
  pool.push_back(std::move(result));
  return static_cast<std::ptrdiff_t>(pool.size()) - 1;
}

// Pass 2 (top-down): keep the inherited choice where possible, emit a
// route where not.
void choose(const std::vector<OrtcNode>& pool, std::ptrdiff_t index,
            const Prefix& at, NextHop inherited, std::vector<Route>& out) {
  const auto& node = pool[static_cast<std::size_t>(index)];
  NextHop chosen = inherited;
  if (!contains(node.candidates, inherited)) {
    chosen = node.candidates.front();
    out.push_back(Route{at, chosen});
  }
  if (node.child[0] >= 0) choose(pool, node.child[0], at.child(0), chosen, out);
  if (node.child[1] >= 0) choose(pool, node.child[1], at.child(1), chosen, out);
}

}  // namespace

std::vector<Route> ortc_compress(const trie::BinaryTrie& fib) {
  std::vector<Route> out;
  if (!fib.root()) return out;
  std::vector<OrtcNode> pool;
  pool.reserve(fib.node_count() + 1);
  const auto root = build(fib.root(), netbase::kNoRoute, pool);
  choose(pool, root, Prefix(), netbase::kNoRoute, out);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace clue::onrtc
