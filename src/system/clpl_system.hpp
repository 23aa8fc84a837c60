// ClplSystem — the baseline forwarding plane, state-accurate.
//
// The CLPL counterpart of ClueSystem: an *uncompressed* FIB sub-tree-
// partitioned over N Shah-Gupta TCAM chips, with covering routes
// replicated so every chip answers LPM stand-alone, and RRC-ME logical
// caches. Its purpose is to measure what the paper's §IV-B asserts:
// with an overlapping, partitioned table, one BGP update touches
// *several* chips (the new route plus a replica per bucket it covers)
// and every touched chip pays the block-cascade cost.
//
// With tcam_count = 1 this is the baseline whole-path update Figs. 10-14
// charge CLPL with: plain trie (TTF1, measured), Shah-Gupta block
// cascade (TTF2, ≈15 shifts x 24 ns on real mixes), RRC-ME cache
// maintenance (TTF3: an SRAM walk of the changed region plus one TCAM
// probe per distinct stale cached prefix).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "engine/dred.hpp"
#include "tcam/updater.hpp"
#include "trie/binary_trie.hpp"
#include "update/cost_model.hpp"
#include "workload/update_gen.hpp"

namespace clue::system {

struct ClplSystemConfig {
  std::size_t tcam_count = 4;
  /// 0 = auto (2x initial chip contents + headroom).
  std::size_t tcam_capacity = 0;
  std::size_t cache_capacity = 1024;
};

/// Per-update impact report — the quantity CLUE's O(1) story is up
/// against.
struct ClplUpdateResult {
  update::TtfSample ttf;
  std::size_t chips_touched = 0;
  std::size_t entries_written = 0;  ///< primary + replica writes/erases
};

class ClplSystem {
 public:
  ClplSystem(const trie::BinaryTrie& fib, const ClplSystemConfig& config);

  netbase::NextHop lookup(netbase::Ipv4Address address);

  ClplUpdateResult apply(const workload::UpdateMsg& message);

  /// Populates the logical caches through RRC-ME (as lookup traffic
  /// would) so TTF3 invalidation costs are realistic. Every fill goes to
  /// all caches: CLPL has no exclusion rule.
  void warm(const std::vector<netbase::Ipv4Address>& addresses);

  const trie::BinaryTrie& fib() const { return fib_; }
  const tcam::TcamChip& chip(std::size_t i) const {
    return chips_[i]->chip();
  }
  /// Chip i's RRC-ME logical cache.
  const engine::DredStore& cache(std::size_t i) const { return *caches_[i]; }
  std::size_t tcam_count() const { return chips_.size(); }
  std::size_t total_tcam_entries() const;

 private:
  /// Chips that must hold `prefix`: its home bucket plus the bucket of
  /// every carve root it covers (it is a covering route for them).
  std::vector<std::size_t> chips_for(const netbase::Prefix& prefix) const;
  std::size_t home_bucket(const netbase::Prefix& prefix) const;

  trie::BinaryTrie fib_;
  // Deepest-match over carve roots = bucket homing (bucket id + 1 is
  // stored as the "next hop").
  trie::BinaryTrie root_index_;
  std::vector<std::unique_ptr<tcam::ShahGuptaUpdater>> chips_;
  std::vector<std::unique_ptr<engine::DredStore>> caches_;
  // Which chips currently hold each prefix (primary + replicas).
  std::unordered_map<netbase::Prefix, std::vector<std::size_t>> placement_;
};

}  // namespace clue::system
