#include "onrtc/compressed_fib.hpp"

#include <algorithm>

namespace clue::onrtc {

namespace detail {

void diff_tables(std::span<const Route> old_table,
                 std::span<const Route> new_table, std::vector<FibOp>& out) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < old_table.size() || j < new_table.size()) {
    if (i == old_table.size()) {
      out.push_back(FibOp{FibOpKind::kInsert, new_table[j++]});
    } else if (j == new_table.size()) {
      out.push_back(FibOp{FibOpKind::kDelete, old_table[i++]});
    } else if (old_table[i].prefix == new_table[j].prefix) {
      if (old_table[i].next_hop != new_table[j].next_hop) {
        out.push_back(FibOp{FibOpKind::kModify, new_table[j]});
      }
      ++i;
      ++j;
    } else if (old_table[i].prefix < new_table[j].prefix) {
      out.push_back(FibOp{FibOpKind::kDelete, old_table[i++]});
    } else {
      out.push_back(FibOp{FibOpKind::kInsert, new_table[j++]});
    }
  }
}

}  // namespace detail

CompressedFib::CompressedFib(const trie::BinaryTrie& ground_truth)
    : truth_(ground_truth), compressed_(compress(truth_)) {}

std::optional<NextHop> CompressedFib::announce(const Prefix& prefix,
                                               NextHop next_hop,
                                               std::vector<FibOp>& ops) {
  Descent path = descend(prefix);
  if (path.prior == next_hop) return path.prior;  // duplicate announce
  truth_.insert_along(path.truth, prefix.length(), prefix, next_hop);
  refresh(prefix, path, ops);
  return path.prior;
}

std::optional<NextHop> CompressedFib::withdraw(const Prefix& prefix,
                                               std::vector<FibOp>& ops) {
  Descent path = descend(prefix);
  if (!path.prior) return std::nullopt;  // unknown route
  truth_.erase_along(path.truth, prefix.length(), prefix);
  refresh(prefix, path, ops);
  return path.prior;
}

std::vector<FibOp> CompressedFib::announce(const Prefix& prefix,
                                           NextHop next_hop) {
  std::vector<FibOp> ops;
  announce(prefix, next_hop, ops);
  return ops;
}

std::vector<FibOp> CompressedFib::withdraw(const Prefix& prefix) {
  std::vector<FibOp> ops;
  withdraw(prefix, ops);
  return ops;
}

CompressedFib::Descent CompressedFib::descend(const Prefix& changed) const {
  // The two walks are independent pointer chases; interleaving them lets
  // their cache misses overlap. A compressed region is a leaf (the table
  // is disjoint), so its walk ends on the covering region by itself.
  Descent path;
  auto truth = truth_.root();
  auto compressed = compressed_.root();
  path.truth[0] = truth.index();
  path.compressed[0] = compressed.index();
  for (unsigned depth = 0; depth < changed.length(); ++depth) {
    const unsigned bit = changed.bit(depth);
    if (truth) {
      path.inherited = truth.next_hop_or(path.inherited);
      truth = truth.child(bit);
    }
    if (compressed) {
      if (compressed.has_route()) path.covering_depth = depth;
      compressed = compressed.child(bit);
    }
    path.truth[depth + 1] = truth.index();
    path.compressed[depth + 1] = compressed.index();
  }
  if (truth && truth.has_route()) path.prior = truth.next_hop();
  return path;
}

void CompressedFib::refresh(const Prefix& changed, Descent& path,
                            std::vector<FibOp>& ops) {
  // The forwarding function can only differ inside `changed`.
  const unsigned length = changed.length();
  new_regions_.clear();
  old_regions_.clear();
  const auto constant = detail::compress_subtree(
      truth_.node(path.truth[length]), changed, path.inherited, new_regions_);
  // Every old and new region lies within the prefix at `at_depth`.
  unsigned at_depth = length;
  if (path.covering_depth < length) {
    // A strictly larger region covers `changed`. Its value still holds
    // on region \ changed, which decomposes into the siblings of the
    // path prefixes below the region root down to `changed`. Each piece
    // is maximal: its sibling on the path contains `changed`, whose value
    // now differs, so no piece can merge further.
    at_depth = path.covering_depth;
    const Route region{
        Prefix(changed.address(), at_depth),
        compressed_.node(path.compressed[at_depth]).next_hop()};
    if (constant == region.next_hop) return;  // no forwarding change
    if (constant && *constant != netbase::kNoRoute) {
      new_regions_.push_back(Route{changed, *constant});
    }
    for (Prefix walk = changed; walk.length() > at_depth;
         walk = walk.parent()) {
      new_regions_.push_back(Route{walk.sibling(), region.next_hop});
    }
    std::sort(new_regions_.begin(), new_regions_.end());
    old_regions_.push_back(region);
  } else {
    if (constant && *constant != netbase::kNoRoute) {
      // The whole subtree collapsed to one value; it may now merge with
      // equal-valued sibling regions arbitrarily far up. Old compression
      // was maximal, so a mergeable sibling is always exactly one region,
      // a child of the recorded compressed path.
      while (at_depth > 0) {
        const auto parent = compressed_.node(path.compressed[at_depth - 1]);
        if (!parent) break;
        const auto sibling = parent.child(changed.bit(at_depth - 1) ^ 1u);
        if (!sibling || !sibling.has_route() ||
            sibling.next_hop() != *constant) {
          break;
        }
        --at_depth;
      }
      new_regions_.push_back(
          Route{Prefix(changed.address(), at_depth), *constant});
    }
    compressed_.for_each_route_below(
        compressed_.node(path.compressed[at_depth]),
        Prefix(changed.address(), at_depth),
        [this](const Route& route) { old_regions_.push_back(route); });
  }

  const std::size_t first = ops.size();
  detail::diff_tables(old_regions_, new_regions_, ops);
  // Writes before erases: the new regions keep the path nodes down to
  // `at_depth` alive, so only the last erase of an emptied subtree prunes
  // above it, and each op continues from the recorded path at `at_depth`.
  for (std::size_t k = first; k < ops.size(); ++k) {
    if (ops[k].kind != FibOpKind::kDelete) {
      compressed_.insert_along(path.compressed, at_depth, ops[k].route.prefix,
                               ops[k].route.next_hop);
    }
  }
  for (std::size_t k = first; k < ops.size(); ++k) {
    if (ops[k].kind == FibOpKind::kDelete) {
      compressed_.erase_along(path.compressed, at_depth, ops[k].route.prefix);
    }
  }
}

}  // namespace clue::onrtc
