#include "rrcme/rrc_me.hpp"

namespace clue::rrcme {

std::optional<CacheFill> minimal_expansion(const trie::BinaryTrie& fib,
                                           Ipv4Address address) {
  // One LPM walk records everything we need: the deepest match, whether
  // anything lives below it, and the first route-free depth on the
  // address path. A trie node exists only when a route lives at or below
  // it, so "the walk fell off the trie" is exactly the safety condition
  // for caching.
  CacheFill fill;
  bool found = false;
  unsigned best_depth = 0;
  bool best_is_leaf = false;
  trie::BinaryTrie::NodeRef node = fib.root();
  unsigned depth = 0;
  while (node) {
    ++fill.sram_accesses;
    if (node.has_route()) {
      found = true;
      fill.next_hop = node.next_hop();
      best_depth = depth;
      best_is_leaf = node.is_leaf();
    }
    if (depth == Prefix::kMaxLength) break;  // /32 node: always a leaf
    node = node.child(address.bit(depth));
    ++depth;
  }
  if (!found) return std::nullopt;

  if (best_is_leaf) {
    // Nothing more specific exists under the match: the matched prefix
    // itself is cacheable (the situation CLUE enjoys for *every* lookup
    // on a non-overlapping table).
    fill.prefix = Prefix(address, best_depth);
  } else {
    // More-specific routes exist below the match; `depth` is now the
    // first level on the address path with no route at or below it
    // (the loop above exited on a null node, since on-path route
    // nodes deeper than the match would themselves have been the match).
    fill.prefix = Prefix(address, depth);
  }
  return fill;
}

Invalidation invalidate_on_update(const trie::BinaryTrie& fib,
                                  const Prefix& changed_prefix,
                                  const std::vector<Prefix>& cached) {
  Invalidation result;
  // One descent to the changed node (control plane re-reads the path)…
  trie::BinaryTrie::NodeRef node = fib.root();
  for (unsigned depth = 0; node && depth < changed_prefix.length(); ++depth) {
    ++result.sram_accesses;
    node = node.child(changed_prefix.bit(depth));
  }
  // …then every cached entry must be screened against the changed range.
  // Entries that overlap the changed prefix may now return a stale next
  // hop and are invalidated (the conservative policy CLPL describes).
  for (const auto& entry : cached) {
    ++result.sram_accesses;
    if (entry.overlaps(changed_prefix)) result.stale.push_back(entry);
  }
  return result;
}

}  // namespace clue::rrcme
