#include "trie/binary_trie.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace clue::trie {

namespace {

// Depth at which the path to `next` leaves the path to `prev`: their
// common prefix length, capped by both lengths.
unsigned shared_depth(const Prefix& prev, const Prefix& next) {
  const unsigned differ =
      static_cast<unsigned>(std::countl_zero(prev.bits() ^ next.bits()));
  return std::min({differ, prev.length(), next.length()});
}

}  // namespace

BinaryTrie::BinaryTrie(std::span<const Route> sorted_routes) {
  if (sorted_routes.empty()) return;
  // Exact arena size first (placeholder + root + one node per path step
  // below the previous route's path), so the build never reallocates.
  std::size_t nodes = 2;
  for (std::size_t i = 0; i < sorted_routes.size(); ++i) {
    const Prefix& prefix = sorted_routes[i].prefix;
    if (i > 0 && !(sorted_routes[i - 1].prefix < prefix)) {
      throw std::invalid_argument(
          "BinaryTrie: bulk routes must be strictly ascending");
    }
    nodes += prefix.length() -
             (i > 0 ? shared_depth(sorted_routes[i - 1].prefix, prefix) : 0);
  }
  nodes_.reserve(nodes + nodes / kSpareDivisor);
  root_ = allocate();

  // path[d] is the node at depth d on the previous route's path. In
  // ascending order, everything below the shared depth is new.
  std::uint32_t path[Prefix::kMaxLength + 1];
  path[0] = root_;
  const Prefix* prev = nullptr;
  for (const Route& route : sorted_routes) {
    const Prefix& prefix = route.prefix;
    for (unsigned depth = prev ? shared_depth(*prev, prefix) : 0;
         depth < prefix.length(); ++depth) {
      const std::uint32_t fresh = allocate();
      slot(path[depth]).set_child(prefix.bit(depth), fresh);
      path[depth + 1] = fresh;
    }
    slot(path[prefix.length()]).set_route(route.next_hop);
    prev = &prefix;
  }
  route_count_ = sorted_routes.size();
}

BinaryTrie::BinaryTrie(const BinaryTrie& other)
    : root_(other.root_),
      free_(other.free_),
      route_count_(other.route_count_),
      node_count_(other.node_count_) {
  const std::size_t slots = other.nodes_.size();
  nodes_.reserve(slots + slots / kSpareDivisor);
  nodes_.assign(other.nodes_.begin(), other.nodes_.end());
}

BinaryTrie& BinaryTrie::operator=(const BinaryTrie& other) {
  if (this != &other) *this = BinaryTrie(other);
  return *this;
}

BinaryTrie::BinaryTrie(BinaryTrie&& other) noexcept
    : nodes_(std::move(other.nodes_)),
      root_(std::exchange(other.root_, 0)),
      free_(std::exchange(other.free_, 0)),
      route_count_(std::exchange(other.route_count_, 0)),
      node_count_(std::exchange(other.node_count_, 0)),
      growths_(std::exchange(other.growths_, 0)) {
  other.nodes_.clear();
}

BinaryTrie& BinaryTrie::operator=(BinaryTrie&& other) noexcept {
  if (this != &other) {
    nodes_ = std::move(other.nodes_);
    other.nodes_.clear();
    root_ = std::exchange(other.root_, 0);
    free_ = std::exchange(other.free_, 0);
    route_count_ = std::exchange(other.route_count_, 0);
    node_count_ = std::exchange(other.node_count_, 0);
    growths_ = std::exchange(other.growths_, 0);
  }
  return *this;
}

std::uint32_t BinaryTrie::allocate() {
  std::uint32_t index;
  if (free_ != 0) {
    index = free_;
    free_ = slot(index).child(0);
    slot(index) = Node{};
  } else {
    if (nodes_.empty()) nodes_.emplace_back();  // slot 0: the placeholder
    if (nodes_.size() > Node::kIndexMask) {
      throw std::length_error("BinaryTrie: arena index space exhausted");
    }
    if (nodes_.size() == nodes_.capacity()) {
      nodes_.reserve(nodes_.size() + nodes_.size() / 4);
      ++growths_;
    }
    index = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  ++node_count_;
  return index;
}

void BinaryTrie::release(std::uint32_t index) {
  Node& node = slot(index);
  node = Node{};
  node.set_child(0, free_);
  free_ = index;
  --node_count_;
}

bool BinaryTrie::insert(const Prefix& prefix, NextHop next_hop) {
  Path path;
  path[0] = root_;
  return insert_along(path, 0, prefix, next_hop);
}

bool BinaryTrie::erase(const Prefix& prefix) {
  Path path;
  path[0] = root_;
  return erase_along(path, 0, prefix);
}

bool BinaryTrie::insert_along(Path& path, unsigned known, const Prefix& prefix,
                              NextHop next_hop) {
  unsigned depth = known;
  while (depth > 0 && path[depth] == 0) --depth;
  if (path[0] == 0) path[0] = root_ = allocate();
  for (; depth < prefix.length(); ++depth) {
    const unsigned bit = prefix.bit(depth);
    std::uint32_t next = slot(path[depth]).child(bit);
    if (next == 0) {
      next = allocate();  // may move the arena: index it again below
      slot(path[depth]).set_child(bit, next);
    }
    path[depth + 1] = next;
  }
  Node& node = slot(path[prefix.length()]);
  const bool created = !node.has_route();
  node.set_route(next_hop);
  if (created) ++route_count_;
  return created;
}

bool BinaryTrie::erase_along(Path& path, unsigned known, const Prefix& prefix) {
  if (path[known] == 0) return false;
  for (unsigned depth = known; depth < prefix.length(); ++depth) {
    path[depth + 1] = slot(path[depth]).child(prefix.bit(depth));
    if (path[depth + 1] == 0) return false;
  }
  Node& node = slot(path[prefix.length()]);
  if (!node.has_route()) return false;
  node.clear_route();
  --route_count_;
  // Prune childless, route-less nodes upward, the root included.
  for (unsigned depth = prefix.length();; --depth) {
    const Node& current = slot(path[depth]);
    if (current.has_route() || !current.is_leaf()) break;
    release(path[depth]);
    path[depth] = 0;
    if (depth == 0) {
      root_ = 0;
      break;
    }
    slot(path[depth - 1]).set_child(prefix.bit(depth - 1), 0);
  }
  return true;
}

NextHop BinaryTrie::lookup(Ipv4Address address) const {
  NextHop best = netbase::kNoRoute;
  std::uint32_t index = root_;
  for (unsigned depth = 0; index != 0; ++depth) {
    const Node& current = slot(index);
    best = current.next_hop_or(best);
    if (depth == Prefix::kMaxLength) break;
    index = current.child(address.bit(depth));
  }
  return best;
}

std::optional<Route> BinaryTrie::lookup_route(Ipv4Address address) const {
  std::optional<Route> best;
  for_each_match(address, [&best](const Route& route) { best = route; });
  return best;
}

std::uint32_t BinaryTrie::find_index(const Prefix& prefix) const {
  std::uint32_t index = root_;
  for (unsigned depth = 0; index != 0 && depth < prefix.length(); ++depth) {
    index = slot(index).child(prefix.bit(depth));
  }
  return index;
}

std::optional<NextHop> BinaryTrie::find(const Prefix& prefix) const {
  const std::uint32_t index = find_index(prefix);
  if (index == 0 || !slot(index).has_route()) return std::nullopt;
  return slot(index).next_hop();
}

std::vector<Route> BinaryTrie::routes() const {
  std::vector<Route> out;
  out.reserve(route_count_);
  for_each_route([&out](const Route& route) { out.push_back(route); });
  return out;
}

std::vector<Route> BinaryTrie::routes_within(const Prefix& within) const {
  std::vector<Route> out;
  for_each_route_below(node_at(within), within,
                       [&out](const Route& route) { out.push_back(route); });
  return out;
}

std::size_t BinaryTrie::nodes_within(const Prefix& prefix) const {
  std::size_t count = 0;
  std::uint32_t stack[Prefix::kMaxLength + 2];
  std::size_t top = 0;
  if (const std::uint32_t start = find_index(prefix)) stack[top++] = start;
  // Depth-first with the right child stacked under the left one; the
  // stack never holds more than one pending node per level.
  while (top > 0) {
    const Node& current = slot(stack[--top]);
    ++count;
    if (const std::uint32_t right = current.child(1)) stack[top++] = right;
    if (const std::uint32_t left = current.child(0)) stack[top++] = left;
  }
  return count;
}

bool BinaryTrie::is_disjoint() const {
  // In in-order, a route nested in an earlier one is first caught nested
  // in its immediate predecessor.
  bool disjoint = true;
  std::optional<Prefix> prev;
  for_each_route([&](const Route& route) {
    if (prev && prev->contains(route.prefix)) disjoint = false;
    prev = route.prefix;
  });
  return disjoint;
}

NextHop BinaryTrie::longest_match_above(const Prefix& prefix) const {
  NextHop best = netbase::kNoRoute;
  std::uint32_t index = root_;
  for (unsigned depth = 0; index != 0 && depth < prefix.length(); ++depth) {
    const Node& current = slot(index);
    best = current.next_hop_or(best);
    index = current.child(prefix.bit(depth));
  }
  return best;
}

void BinaryTrie::clear() { *this = BinaryTrie(); }

void LinearFib::insert(const Prefix& prefix, NextHop next_hop) {
  for (auto& route : routes_) {
    if (route.prefix == prefix) {
      route.next_hop = next_hop;
      return;
    }
  }
  routes_.push_back(Route{prefix, next_hop});
}

bool LinearFib::erase(const Prefix& prefix) {
  const auto it =
      std::find_if(routes_.begin(), routes_.end(),
                   [&](const Route& r) { return r.prefix == prefix; });
  if (it == routes_.end()) return false;
  routes_.erase(it);
  return true;
}

NextHop LinearFib::lookup(Ipv4Address address) const {
  const Route* best = nullptr;
  for (const auto& route : routes_) {
    if (route.prefix.contains(address) &&
        (!best || route.prefix.length() > best->prefix.length())) {
      best = &route;
    }
  }
  return best ? best->next_hop : netbase::kNoRoute;
}

}  // namespace clue::trie
