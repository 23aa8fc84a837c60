#include "onrtc/compressed_fib.hpp"

#include <algorithm>

namespace clue::onrtc {

namespace detail {

std::vector<FibOp> diff_tables(const std::vector<Route>& old_table,
                               const std::vector<Route>& new_table) {
  std::vector<FibOp> ops;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < old_table.size() || j < new_table.size()) {
    if (i == old_table.size()) {
      ops.push_back(FibOp{FibOpKind::kInsert, new_table[j++]});
    } else if (j == new_table.size()) {
      ops.push_back(FibOp{FibOpKind::kDelete, old_table[i++]});
    } else if (old_table[i].prefix == new_table[j].prefix) {
      if (old_table[i].next_hop != new_table[j].next_hop) {
        ops.push_back(FibOp{FibOpKind::kModify, new_table[j]});
      }
      ++i;
      ++j;
    } else if (old_table[i].prefix < new_table[j].prefix) {
      ops.push_back(FibOp{FibOpKind::kDelete, old_table[i++]});
    } else {
      ops.push_back(FibOp{FibOpKind::kInsert, new_table[j++]});
    }
  }
  return ops;
}

}  // namespace detail

CompressedFib::CompressedFib(const trie::BinaryTrie& ground_truth)
    : truth_(ground_truth), compressed_(compress(truth_)) {}

std::vector<FibOp> CompressedFib::announce(const Prefix& prefix,
                                           NextHop next_hop) {
  const auto existing = truth_.find(prefix);
  if (existing && *existing == next_hop) return {};  // duplicate announce
  truth_.insert(prefix, next_hop);
  return refresh(prefix);
}

std::vector<FibOp> CompressedFib::withdraw(const Prefix& prefix) {
  if (!truth_.erase(prefix)) return {};  // unknown route
  return refresh(prefix);
}

std::vector<FibOp> CompressedFib::refresh(const Prefix& changed) {
  // The forwarding function can only differ inside `changed`. When a
  // strictly larger region covers it, we can avoid re-walking that whole
  // region: its remainder decomposes into the path siblings between the
  // region root and `changed`, each a maximal piece by construction.
  const auto covering = compressed_.lookup_route(changed.address());
  if (covering && covering->prefix.contains(changed) &&
      covering->prefix != changed) {
    return refresh_under_region(*covering, changed);
  }
  Prefix at = changed;

  std::vector<Route> new_regions;
  const auto constant = detail::compress_subtree(
      truth_.node_at(at), at, truth_.longest_match_above(at), new_regions);
  if (constant) {
    if (*constant != netbase::kNoRoute) {
      // The whole subtree collapsed to one value; it may now merge with
      // equal-valued sibling regions arbitrarily far up. Old compression
      // was maximal, so a mergeable sibling is always exactly one region.
      while (at.length() > 0 && compressed_.find(at.sibling()) == constant) {
        at = at.parent();
      }
      new_regions.assign(1, Route{at, *constant});
    }
  }

  return apply_diff(compressed_.routes_within(at), new_regions);
}

std::vector<FibOp> CompressedFib::refresh_under_region(const Route& region,
                                                       const Prefix& changed) {
  // Precondition: `region` is the (unique) compressed region strictly
  // containing `changed`; the forwarding function outside `changed` is
  // untouched, so the region's value still holds on region \ changed.
  std::vector<Route> new_regions;
  const auto constant =
      detail::compress_subtree(truth_.node_at(changed), changed,
                               truth_.longest_match_above(changed),
                               new_regions);
  if (constant && *constant == region.next_hop) {
    return {};  // the update did not change the forwarding function
  }
  if (constant) {
    new_regions.clear();
    if (*constant != netbase::kNoRoute) {
      new_regions.push_back(Route{changed, *constant});
    }
  }
  // region \ changed = the sibling of every path prefix between the
  // region root (exclusive) and `changed` (inclusive). Each piece is
  // maximal: its sibling on the path contains `changed`, whose value now
  // differs, so no piece can merge further.
  for (Prefix walk = changed; walk.length() > region.prefix.length();
       walk = walk.parent()) {
    new_regions.push_back(Route{walk.sibling(), region.next_hop});
  }
  std::sort(new_regions.begin(), new_regions.end());
  return apply_diff({region}, new_regions);
}

std::vector<FibOp> CompressedFib::apply_diff(
    const std::vector<Route>& old_regions,
    const std::vector<Route>& new_regions) {
  const auto ops = detail::diff_tables(old_regions, new_regions);
  for (const auto& op : ops) {
    switch (op.kind) {
      case FibOpKind::kInsert:
      case FibOpKind::kModify:
        compressed_.insert(op.route.prefix, op.route.next_hop);
        break;
      case FibOpKind::kDelete:
        compressed_.erase(op.route.prefix);
        break;
    }
  }
  return ops;
}

}  // namespace clue::onrtc
