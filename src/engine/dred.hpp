// DredStore — one TCAM's Dynamic Redundancy partition.
//
// An LRU-replaced store of prefixes with LPM matching, the structure the
// paper carves out of each TCAM chip (Fig. 1). CLUE's novelty is a usage
// rule, not a structure: DRed i never receives TCAM i's own prefixes,
// because a packet homed at TCAM i is never diverted to DRed i — so the
// same hit rate needs (N-1)/N of CLPL's capacity. That exclusion lives in
// the engine's fill policy; the store itself is shared by both modes.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "netbase/prefix.hpp"
#include "trie/binary_trie.hpp"

namespace clue::engine {

using netbase::Ipv4Address;
using netbase::NextHop;
using netbase::Prefix;
using netbase::Route;

// On the runtime's diverted-lookup path every DRed probe walks the
// match trie (~32 dependent loads). Diverted traffic is skewed by
// construction — the §III-B rule sends hot overflow — so a small
// direct-mapped address cache in front of the trie answers repeats in
// one load. One store-wide stamp invalidates the whole cache on any
// answer-changing mutation (fresh insert, hop rewrite, erase):
// correctness never depends on per-entry bookkeeping, and re-offering
// an already-cached identical route — the common fill — leaves the
// cache intact. Negative results (no covering prefix) are cached too.
// Stats and exact LRU order are preserved: a cached hit counts and
// promotes exactly like a trie hit.
class DredStore {
 public:
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t insertions = 0;  ///< fresh entries only (cache grew)
    std::uint64_t updates = 0;     ///< already-cached prefix re-offered/fixed
    std::uint64_t evictions = 0;
    std::uint64_t erasures = 0;

    double hit_rate() const {
      return lookups ? static_cast<double>(hits) /
                           static_cast<double>(lookups)
                     : 0.0;
    }
  };

  explicit DredStore(std::size_t capacity);

  /// LPM over the cached prefixes; refreshes LRU position on hit.
  std::optional<NextHop> lookup(Ipv4Address address);

  /// Caches `route`, refreshing recency if already present (and updating
  /// its next hop); evicts the least-recently-used entry when full.
  /// A re-offered prefix counts as an update, never a fresh insertion,
  /// and touches the match trie only when the next hop actually changed.
  void insert(const Route& route);

  /// Control-plane fix (§IV-C kModify sync): rewrites the next hop of an
  /// already-cached prefix *without* promoting it in LRU order — a sync
  /// message is not a reuse, so it must not distort replacement. Returns
  /// false when the prefix is not cached.
  bool fix(const Route& route);

  /// Exact-prefix removal (routing-update synchronisation, §IV-C).
  bool erase(const Prefix& prefix);

  bool contains(const Prefix& prefix) const;
  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Cached prefixes (LRU order, most recent first) — RRC-ME's
  /// invalidation scan needs the full contents.
  std::vector<Prefix> contents() const;
  /// Cached routes with their hops, same order as contents().
  std::vector<Route> routes() const {
    return {entries_.begin(), entries_.end()};
  }

  /// Cached prefixes whose range intersects `prefix` (ancestors and
  /// descendants). What a TCAM-style invalidation probe would flag.
  std::vector<Prefix> overlapping(const Prefix& prefix) const;

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  /// Structural invariant: the LRU list, the prefix index, and the match
  /// trie describe the same entry set, within capacity. Cheap enough for
  /// tests to assert after every mutation.
  bool invariants_ok() const {
    return entries_.size() == index_.size() &&
           match_.size() == entries_.size() && entries_.size() <= capacity_;
  }

 private:
  /// One memoised LPM answer: address -> (covering prefix, hop) or a
  /// remembered miss. Valid only while `stamp` matches the store's.
  struct AddrSlot {
    Ipv4Address address{0};
    Prefix prefix{};
    NextHop hop = netbase::kNoRoute;
    std::uint32_t stamp = 0;
    bool hit = false;
  };

  void touch(std::list<Route>::iterator it);
  /// Any mutation: every cached answer may now be wrong.
  void invalidate_addr_cache();

  std::size_t capacity_;
  std::list<Route> entries_;  // front = most recently used
  std::unordered_map<Prefix, std::list<Route>::iterator> index_;
  trie::BinaryTrie match_;
  Stats stats_;
  std::vector<AddrSlot> addr_cache_;
  std::uint32_t addr_mask_ = 0;
  std::uint32_t stamp_ = 1;  // 0 is "never valid" in the slots
};

}  // namespace clue::engine
