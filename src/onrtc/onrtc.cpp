#include "onrtc/onrtc.hpp"

#include <optional>

#include "onrtc/compressed_fib.hpp"

namespace clue::onrtc {

namespace detail {

// Returns the constant forwarding value of `node`'s subtree if there is
// one (kNoRoute meaning "no address in the subtree is routed"), or
// nullopt when the subtree is mixed — in which case all of its maximal
// constant regions have been appended to `out`, in order. `inherited` is
// the LPM value the subtree inherits from strict ancestors; a null `node`
// therefore denotes a subtree uniformly equal to `inherited`.
std::optional<NextHop> compress_subtree(trie::BinaryTrie::NodeRef node,
                                        const Prefix& at, NextHop inherited,
                                        std::vector<Route>& out) {
  if (!node) return inherited;
  const NextHop effective = node.next_hop_or(inherited);
  if (node.is_leaf()) return effective;

  // A constant subtree appends nothing, so a constant left half is
  // emitted before the right half is walked (keeping `out` in order) and
  // taken back if the right half turns out equal.
  const auto left =
      compress_subtree(node.child(0), at.child(0), effective, out);
  const bool left_emitted = left && *left != netbase::kNoRoute;
  if (left_emitted) out.push_back(Route{at.child(0), *left});
  const auto right =
      compress_subtree(node.child(1), at.child(1), effective, out);
  if (left && right && *left == *right) {
    if (left_emitted) out.pop_back();
    return left;
  }
  if (right && *right != netbase::kNoRoute) {
    out.push_back(Route{at.child(1), *right});
  }
  return std::nullopt;
}

}  // namespace detail

std::vector<Route> compress(const trie::BinaryTrie& fib) {
  std::vector<Route> out;
  if (!fib.root()) return out;
  out.reserve(fib.size());
  const auto constant = detail::compress_subtree(fib.root(), Prefix(),
                                                 netbase::kNoRoute, out);
  if (constant && *constant != netbase::kNoRoute) {
    out.push_back(Route{Prefix(), *constant});
  }
  return out;
}

CompressionResult compress_with_stats(const trie::BinaryTrie& fib) {
  CompressionResult result;
  result.table = compress(fib);
  result.stats.original_routes = fib.size();
  result.stats.compressed_routes = result.table.size();
  return result;
}

}  // namespace clue::onrtc
