// CompressedFib — the paper's control-plane trie with incremental ONRTC.
//
// Holds both the ground-truth FIB (what BGP announced) and its ONRTC-
// compressed non-overlapping image (what the TCAMs store). Each
// announce/withdraw updates the ground truth, locally re-derives the
// compressed image on the affected subtree only, and returns the minimal
// diff — the exact write/delete/modify operations the data plane must
// apply. This is TTF1's workload in the paper's update experiments.
//
// One message makes one root-down descent that steps both tries in
// lockstep, one level per iteration, and records both paths as arena
// indices. That descent yields the prior hop, the hop inherited from
// above the changed prefix, and the compressed region covering it, if
// any. The truth update, the sibling merge, the old-region walk and the
// diff's inserts and erases all continue from the recorded paths; none
// of them walks down from the root again.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
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
  /// Appends the diff on the compressed table to `ops` (nothing for a
  /// duplicate announce) and returns the hop `prefix` carried before,
  /// nullopt when it carried no route.
  std::optional<NextHop> announce(const Prefix& prefix, NextHop next_hop,
                                  std::vector<FibOp>& ops);

  /// BGP withdraw: the route at `prefix` disappears. Appends the diff to
  /// `ops` (nothing when no route was there) and returns the withdrawn
  /// hop, nullopt when there was none.
  std::optional<NextHop> withdraw(const Prefix& prefix,
                                  std::vector<FibOp>& ops);

  /// One-shot forms: the diff alone, in a fresh vector.
  std::vector<FibOp> announce(const Prefix& prefix, NextHop next_hop);
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

  /// Arena growths of both tries (trie::BinaryTrie::growths()).
  std::uint64_t trie_growths() const {
    return truth_.growths() + compressed_.growths();
  }

 private:
  /// Both tries' nodes along one changed prefix, from one descent.
  struct Descent {
    trie::BinaryTrie::Path truth;
    trie::BinaryTrie::Path compressed;
    /// The LPM hop from the truth's strict ancestors of the prefix.
    NextHop inherited = netbase::kNoRoute;
    /// The truth's hop at the prefix before the message.
    std::optional<NextHop> prior;
    /// Depth of the compressed region strictly containing the prefix;
    /// past the prefix's length when none does.
    unsigned covering_depth = Prefix::kMaxLength + 1;
  };

  Descent descend(const Prefix& changed) const;

  /// Re-derives the compressed image around `changed` (the truth already
  /// updated along `path.truth`), applies the diff to the compressed
  /// trie and appends it to `ops`.
  void refresh(const Prefix& changed, Descent& path, std::vector<FibOp>& ops);

  trie::BinaryTrie truth_;
  trie::BinaryTrie compressed_;
  // Per-message scratch, kept to reuse its capacity.
  std::vector<Route> old_regions_;
  std::vector<Route> new_regions_;
};

namespace detail {

/// Internal recursion shared with full compression; exposed for tests.
/// See onrtc.cpp for the contract.
std::optional<NextHop> compress_subtree(trie::BinaryTrie::NodeRef node,
                                        const Prefix& at, NextHop inherited,
                                        std::vector<Route>& out);

/// Sorted-set diff of two in-order route lists, appended to `out` in
/// in-order position.
void diff_tables(std::span<const Route> old_table,
                 std::span<const Route> new_table, std::vector<FibOp>& out);

}  // namespace detail

}  // namespace clue::onrtc
