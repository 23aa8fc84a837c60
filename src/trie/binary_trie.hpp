// Unibit binary trie over IPv4 prefixes.
//
// This is the control-plane representation of the FIB: the ground truth
// that ONRTC compresses, that partition algorithms traverse, and that
// RRC-ME walks to compute cacheable prefixes. One node per prefix on a
// path; a node may or may not carry a route (next hop).
//
// Nodes live in one flat index arena (a vector) and name their children
// by 32-bit index, so a node is 12 bytes: two child indices and the hop,
// with route presence in the top bit of the first index. Index 0 is the
// null child. Freed nodes go on a free list threaded through the arena,
// so route churn (the paper's 35K updates/s regime) reuses slots instead
// of allocating. A copy is one array copy, and the bulk constructor lays
// a sorted table out in pre-order, keeping each subtree contiguous for
// the walk-heavy algorithms. Both reserve 1/8 more slots than they
// fill, so the first updates to a fresh copy do not reallocate; past
// that the arena grows by a quarter at a time (one array copy, with old
// and new arrays briefly both held), and growths() counts how often.
//
// Structural access goes through NodeRef, a (trie, index) handle: it
// survives the arena's reallocation, but an erase may free the node it
// names and a later insert reuse the slot, so never hold a NodeRef
// across a mutation. A caller that descends once and then mutates along
// the same prefix records the descent as a Path of indices and hands it
// to insert_along/erase_along, which continue from it instead of walking
// down from the root again.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "netbase/prefix.hpp"

namespace clue::trie {

using netbase::Ipv4Address;
using netbase::NextHop;
using netbase::Prefix;
using netbase::Route;

class BinaryTrie {
  class Node;

 public:
  /// Read-only handle on one node. Null (false, == nullptr) when it names
  /// no node, e.g. the child of a leaf.
  class NodeRef {
   public:
    NodeRef() = default;

    explicit operator bool() const { return index_ != 0; }
    friend bool operator==(NodeRef ref, std::nullptr_t) {
      return ref.index_ == 0;
    }

    bool has_route() const;
    /// The stored hop; meaningful only when has_route().
    NextHop next_hop() const;
    /// What an LPM ending here answers: the node's own hop when it
    /// carries a route (even a kNoRoute one), else `inherited`.
    NextHop next_hop_or(NextHop inherited) const;
    bool is_leaf() const;
    /// The child on `bit` (0 or 1); null when absent.
    NodeRef child(unsigned bit) const;
    /// The node's arena slot: a dense id below arena_slots(), for
    /// per-node side tables.
    std::uint32_t index() const { return index_; }

   private:
    friend class BinaryTrie;
    NodeRef(const BinaryTrie* trie, std::uint32_t index)
        : trie_(trie), index_(index) {}
    const Node& node() const { return trie_->slot(index_); }

    const BinaryTrie* trie_ = nullptr;
    std::uint32_t index_ = 0;
  };

  /// The nodes along one root-down path, as arena indices: entry d is
  /// the node at depth d, 0 when there is none (and then 0 below it too).
  using Path = std::array<std::uint32_t, Prefix::kMaxLength + 1>;

  BinaryTrie() = default;

  /// Bulk build from routes strictly ascending in Prefix (in-order)
  /// order, e.g. an ONRTC table or another trie's routes(): one pass
  /// with a path stack, nodes laid out in pre-order, no per-route
  /// descent. Throws std::invalid_argument when the input is not
  /// strictly ascending.
  explicit BinaryTrie(std::span<const Route> sorted_routes);

  BinaryTrie(const BinaryTrie& other);
  BinaryTrie& operator=(const BinaryTrie& other);
  BinaryTrie(BinaryTrie&& other) noexcept;
  BinaryTrie& operator=(BinaryTrie&& other) noexcept;

  /// Inserts or overwrites the route for `prefix`.
  /// Returns true when a new route was created, false when an existing
  /// route's next hop was replaced.
  bool insert(const Prefix& prefix, NextHop next_hop);

  /// Removes the route for `prefix` (exact match on prefix, not LPM).
  /// Returns true when a route was removed. Prunes now-useless nodes.
  bool erase(const Prefix& prefix);

  /// insert() continuing from a recorded descent: `path[0..known]` must
  /// hold this trie's nodes along `prefix` (known <= prefix.length()).
  /// Fills the rest of `path` down to `prefix` with the nodes it walks or
  /// creates.
  bool insert_along(Path& path, unsigned known, const Prefix& prefix,
                    NextHop next_hop);

  /// erase() continuing from a recorded descent, under insert_along's
  /// contract. Pruning runs up through `path` and zeroes the entries of
  /// the nodes it frees.
  bool erase_along(Path& path, unsigned known, const Prefix& prefix);

  /// Longest-prefix-match lookup; kNoRoute when nothing matches.
  NextHop lookup(Ipv4Address address) const;

  /// Longest-prefix-match returning the winning route itself.
  std::optional<Route> lookup_route(Ipv4Address address) const;

  /// Exact-match query: the next hop stored at `prefix`, if any.
  std::optional<NextHop> find(const Prefix& prefix) const;

  /// Invokes `visit(route)` for every stored route whose prefix contains
  /// `address`, shortest first (there are at most 33). `visit` must not
  /// mutate the trie.
  template <typename Visit>
  void for_each_match(Ipv4Address address, Visit&& visit) const;

  /// Number of routes (nodes carrying a next hop).
  std::size_t size() const { return route_count_; }
  bool empty() const { return route_count_ == 0; }

  /// Number of live trie nodes (root included when present).
  std::size_t node_count() const { return node_count_; }

  /// Bytes the arena holds: its capacity, free and reserved slots
  /// included. O(1).
  std::size_t memory_bytes() const { return nodes_.capacity() * sizeof(Node); }

  /// Times an insert found the arena full and reallocated it (one copy
  /// of the whole array inside that insert) since this trie was built or
  /// copied.
  std::uint64_t growths() const { return growths_; }

  /// Invokes `visit(route)` for every route in in-order (address-sorted,
  /// shorter prefix before its descendants) order. `visit` must not
  /// mutate the trie.
  template <typename Visit>
  void for_each_route(Visit&& visit) const {
    walk_routes(root_, 0, 0, visit);
  }

  /// for_each_route() over the subtree of `node`, whose path spells `at`.
  template <typename Visit>
  void for_each_route_below(NodeRef node, const Prefix& at,
                            Visit&& visit) const {
    walk_routes(node.index_, at.bits(), at.length(), visit);
  }

  /// All routes, in in-order traversal order.
  std::vector<Route> routes() const;

  /// True when no stored route's prefix contains another stored route's
  /// prefix — the invariant ONRTC-compressed tables maintain.
  bool is_disjoint() const;

  /// Removes all routes and releases the arena.
  void clear();

  /// Root node, for algorithms (ONRTC, partitioning, RRC-ME) that need
  /// structural access. Null for an empty trie.
  NodeRef root() const { return NodeRef(this, root_); }

  /// The handle on arena slot `index`: a NodeRef::index() or a Path
  /// entry taken since the last mutation.
  NodeRef node(std::uint32_t index) const { return NodeRef(this, index); }

  /// The node whose path spells `prefix`, or null when no stored route
  /// lies at or below `prefix` (nodes exist only on paths to routes).
  NodeRef node_at(const Prefix& prefix) const {
    return NodeRef(this, find_index(prefix));
  }

  /// One past the largest NodeRef::index() in use.
  std::size_t arena_slots() const { return nodes_.size(); }

  /// Number of nodes in the subtree at `prefix` (0 when there is none).
  std::size_t nodes_within(const Prefix& prefix) const;

  /// All routes whose prefix is contained in `within`, in-order.
  std::vector<Route> routes_within(const Prefix& within) const;

  /// The next hop a lookup would inherit from the *strict* ancestors of
  /// `prefix` — i.e. the LPM answer just above it. kNoRoute when none.
  NextHop longest_match_above(const Prefix& prefix) const;

 private:
  class Node {
   public:
    static constexpr std::uint32_t kRouteBit = 1u << 31;
    static constexpr std::uint32_t kIndexMask = kRouteBit - 1;

    bool has_route() const { return (link_[0] & kRouteBit) != 0; }
    NextHop next_hop() const { return hop_; }
    NextHop next_hop_or(NextHop inherited) const {
      return has_route() ? hop_ : inherited;
    }
    bool is_leaf() const { return (child(0) | child(1)) == 0; }
    std::uint32_t child(unsigned bit) const {
      return link_[bit] & kIndexMask;
    }
    void set_child(unsigned bit, std::uint32_t index) {
      link_[bit] = (link_[bit] & kRouteBit) | index;
    }
    void set_route(NextHop hop) {
      link_[0] |= kRouteBit;
      hop_ = hop;
    }
    void clear_route() {
      link_[0] &= kIndexMask;
      hop_ = netbase::kNoRoute;
    }

   private:
    std::uint32_t link_[2] = {0, 0};  // child indices; 0 = none
    NextHop hop_ = netbase::kNoRoute;
  };
  static_assert(sizeof(Node) == 12);

  /// A copy or bulk build reserves 1/kSpareDivisor more slots than it
  /// fills.
  static constexpr std::size_t kSpareDivisor = 8;

  const Node& slot(std::uint32_t index) const { return nodes_[index]; }
  Node& slot(std::uint32_t index) { return nodes_[index]; }
  std::uint32_t allocate();
  void release(std::uint32_t index);  // node must be childless
  std::uint32_t find_index(const Prefix& prefix) const;

  template <typename Visit>
  void walk_routes(std::uint32_t index, std::uint32_t bits, unsigned depth,
                   Visit& visit) const;

  // nodes_[0] is a placeholder so that index 0 can mean "no node"; the
  // arena stays empty (no placeholder either) until the first insert.
  std::vector<Node> nodes_;
  std::uint32_t root_ = 0;
  std::uint32_t free_ = 0;  // free-list head, threaded through child 0
  std::size_t route_count_ = 0;
  std::size_t node_count_ = 0;
  std::uint64_t growths_ = 0;
};

inline bool BinaryTrie::NodeRef::has_route() const {
  return node().has_route();
}
inline NextHop BinaryTrie::NodeRef::next_hop() const {
  return node().next_hop();
}
inline NextHop BinaryTrie::NodeRef::next_hop_or(NextHop inherited) const {
  return node().next_hop_or(inherited);
}
inline bool BinaryTrie::NodeRef::is_leaf() const { return node().is_leaf(); }
inline BinaryTrie::NodeRef BinaryTrie::NodeRef::child(unsigned bit) const {
  return NodeRef(trie_, node().child(bit));
}

template <typename Visit>
void BinaryTrie::for_each_match(Ipv4Address address, Visit&& visit) const {
  std::uint32_t index = root_;
  std::uint32_t bits = 0;
  for (unsigned depth = 0; index != 0; ++depth) {
    const Node& current = slot(index);
    if (current.has_route()) {
      visit(Route{Prefix(Ipv4Address(bits), depth), current.next_hop()});
    }
    if (depth == Prefix::kMaxLength) break;
    const unsigned bit = address.bit(depth);
    index = current.child(bit);
    if (bit) bits |= 1u << (31u - depth);
  }
}

template <typename Visit>
void BinaryTrie::walk_routes(std::uint32_t index, std::uint32_t bits,
                             unsigned depth, Visit& visit) const {
  if (index == 0) return;
  const Node& current = slot(index);
  if (current.has_route()) {
    visit(Route{Prefix(Ipv4Address(bits), depth), current.next_hop()});
  }
  // A /32 node is always a leaf, so the shift below stays in range.
  if (const std::uint32_t left = current.child(0)) {
    walk_routes(left, bits, depth + 1, visit);
  }
  if (const std::uint32_t right = current.child(1)) {
    walk_routes(right, bits | (1u << (31u - depth)), depth + 1, visit);
  }
}

/// A linear-scan FIB used as a differential-testing oracle: stores routes
/// in a flat vector and answers LPM by scanning all of them.
class LinearFib {
 public:
  void insert(const Prefix& prefix, NextHop next_hop);
  bool erase(const Prefix& prefix);
  NextHop lookup(Ipv4Address address) const;
  std::size_t size() const { return routes_.size(); }
  const std::vector<Route>& routes() const { return routes_; }

 private:
  std::vector<Route> routes_;
};

}  // namespace clue::trie
