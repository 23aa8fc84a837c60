// CluePipeline — the paper's whole-path incremental update (Fig. 6),
// CLUE flavour: ONRTC-compressed trie -> order-free TCAM -> DRed.
//
// apply() pushes one BGP update end to end and returns its TTF split:
//   TTF1 — measured wall time of the incremental ONRTC trie update;
//   TTF2 — TCAM operations × 24 ns (ClueUpdater: ≤1 shift per diff op);
//   TTF3 — DRed synchronisation: inserts need nothing, deletes/modifies
//          are one parallel probe across all DReds (24 ns per diff op).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/dred.hpp"
#include "obs/metrics_registry.hpp"
#include "onrtc/compressed_fib.hpp"
#include "tcam/updater.hpp"
#include "update/cost_model.hpp"
#include "update/group_commit.hpp"
#include "workload/update_gen.hpp"

namespace clue::update {

using netbase::Ipv4Address;
using netbase::NextHop;
using netbase::Prefix;

struct PipelineConfig {
  /// Explicit TCAM capacity; 0 = auto-size to 4x the initial compressed
  /// table plus 8192 slack (update::auto_capacity). A capacity below the
  /// initial compressed table makes the constructor throw
  /// std::invalid_argument.
  std::size_t tcam_capacity = 0;
  std::size_t dred_count = 4;
  std::size_t dred_capacity = 1024;
};

class CluePipeline {
 public:
  CluePipeline(const trie::BinaryTrie& fib, const PipelineConfig& config);

  /// Applies one update message through trie, TCAM and DRed: exactly
  /// apply_batch() of one message, plus a throw when it was rejected.
  ///
  /// An update the TCAM cannot hold is rejected *before* any chip or
  /// DRed write: the trie diff is rolled back and tcam::TcamFullError is
  /// thrown, leaving trie, TCAM and DReds mutually consistent (the
  /// caller can drop the update, resize, or shed load — the pipeline
  /// object stays usable).
  TtfSample apply(const workload::UpdateMsg& message);

  /// Group commit (update::BatchTxn): applies a whole burst as one table
  /// transition. All trie diffs run first (TTF1), their diff ops are
  /// coalesced to the burst's net effect (insert+delete pairs cancel,
  /// modifies last-writer-win), and the TCAM plus DReds are written once
  /// per net op — TTF2/TTF3 are paid per net change, not per message.
  ///
  /// Admission is exact: the projected occupancy is the current one,
  /// minus the entries the net ops erase, plus the entries they add. The
  /// erases run before the writes, so no transient state exceeds the
  /// larger of the two. If the projection overflows, messages are rolled
  /// back from the *end* of the batch (trie restored message by message)
  /// until the remainder fits; the committed prefix stays consistent
  /// across trie, TCAM, and DReds, and the rejected suffix is counted in
  /// `rejected` (and in updates_rejected()) instead of throwing.
  BatchTtfSample apply_batch(std::span<const workload::UpdateMsg> messages);

  /// Simulates lookup traffic to populate the DReds the way a running
  /// engine would (each matched region cached in all DReds but one,
  /// round-robin over the "home" chip).
  void warm(const std::vector<Ipv4Address>& addresses);

  /// Data-plane lookup straight from the TCAM chip.
  NextHop lookup(Ipv4Address address);

  const onrtc::CompressedFib& fib() const { return fib_; }
  const tcam::TcamChip& chip() const { return tcam_->chip(); }
  const engine::DredStore& dred(std::size_t i) const { return *dreds_[i]; }
  std::size_t dred_count() const { return dreds_.size(); }

  /// The enforced TCAM capacity (explicit or auto-sized).
  std::size_t tcam_capacity() const { return tcam_->chip().capacity(); }
  /// Updates rejected with TcamFullError (after trie rollback).
  std::uint64_t updates_rejected() const { return updates_rejected_; }

  /// Fills `registry` with pipeline sizing and pressure metrics —
  /// notably "pipeline.headroom_remaining", the fraction of TCAM
  /// capacity still free, so operators see overflow coming before
  /// apply() starts rejecting.
  void export_metrics(obs::MetricsRegistry& registry) const;

 private:
  onrtc::CompressedFib fib_;
  std::unique_ptr<tcam::ClueUpdater> tcam_;
  std::vector<std::unique_ptr<engine::DredStore>> dreds_;
  /// Next round-robin "home" chip index for warm(); always < dred count.
  std::size_t warm_cursor_ = 0;
  std::uint64_t updates_rejected_ = 0;
};

}  // namespace clue::update
