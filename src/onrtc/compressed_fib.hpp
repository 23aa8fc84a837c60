// CompressedFib — the paper's control-plane trie with incremental ONRTC.
//
// Holds both the ground-truth FIB (what BGP announced) and its ONRTC-
// compressed non-overlapping image (what the TCAMs store). Each
// announce/withdraw updates the ground truth, locally re-derives the
// compressed image on the affected subtree only, and returns the minimal
// diff — the exact write/delete/modify operations the data plane must
// apply. This is TTF1's workload in the paper's update experiments.
#pragma once

#include <cstdint>
#include <vector>

#include "onrtc/onrtc.hpp"
#include "trie/binary_trie.hpp"

namespace clue::onrtc {

/// One operation on the compressed (non-overlapping) table.
enum class FibOpKind : std::uint8_t {
  kInsert,  ///< a new disjoint prefix appears
  kDelete,  ///< a disjoint prefix disappears
  kModify,  ///< same prefix, new next hop (in-place TCAM rewrite)
};

struct FibOp {
  FibOpKind kind;
  Route route;  ///< for kDelete this carries the *old* next hop

  friend bool operator==(const FibOp&, const FibOp&) = default;
};

class CompressedFib {
 public:
  CompressedFib() = default;

  /// Builds from an existing ground-truth FIB (full compression).
  explicit CompressedFib(const trie::BinaryTrie& ground_truth);

  /// BGP announce: route `prefix -> next_hop` is added or re-advertised.
  /// Returns the diff on the compressed table (possibly empty).
  std::vector<FibOp> announce(const Prefix& prefix, NextHop next_hop);

  /// BGP withdraw: the route at `prefix` disappears.
  std::vector<FibOp> withdraw(const Prefix& prefix);

  /// LPM on the compressed image — must always agree with ground truth.
  NextHop lookup(Ipv4Address address) const { return compressed_.lookup(address); }

  const trie::BinaryTrie& ground_truth() const { return truth_; }
  const trie::BinaryTrie& compressed() const { return compressed_; }

  /// Compressed table size (number of disjoint prefixes).
  std::size_t size() const { return compressed_.size(); }

  /// Bytes both tries' arenas hold (ground truth + compressed image).
  std::size_t memory_bytes() const {
    return truth_.memory_bytes() + compressed_.memory_bytes();
  }

 private:
  /// Re-derives the compressed image around `changed` and applies+returns
  /// the diff.
  std::vector<FibOp> refresh(const Prefix& changed);

  /// Fast path: `changed` lies strictly inside the single compressed
  /// region `region` — rebuild only `changed`'s subtree plus the
  /// path-sibling remainder pieces.
  std::vector<FibOp> refresh_under_region(const Route& region,
                                          const Prefix& changed);

  /// Diffs old vs new regions, applies the result to the compressed
  /// trie, and returns it.
  std::vector<FibOp> apply_diff(const std::vector<Route>& old_regions,
                                const std::vector<Route>& new_regions);

  trie::BinaryTrie truth_;
  trie::BinaryTrie compressed_;
};

namespace detail {

/// Internal recursion shared with full compression; exposed for tests.
/// See onrtc.cpp for the contract.
std::optional<NextHop> compress_subtree(trie::BinaryTrie::NodeRef node,
                                        const Prefix& at, NextHop inherited,
                                        std::vector<Route>& out);

/// Sorted-set diff of two in-order route lists.
std::vector<FibOp> diff_tables(const std::vector<Route>& old_table,
                               const std::vector<Route>& new_table);

}  // namespace detail

}  // namespace clue::onrtc
