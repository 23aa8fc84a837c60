// Group commit: the one update-commit transaction every host runs
// (system::ClueSystem, runtime::LookupRuntime).
//
// The paper's update path (§IV, Fig. 6) is one sequence: ONRTC diff
// (TTF1), order-free TCAM writes (TTF2), DRed sync (TTF3). BatchTxn owns
// the part of it that does not depend on how a host publishes to its
// chips: it journals every message's diff, back to back in one flat op
// journal, with the prior hop the diff reported (the rollback token),
// coalesces the ops to the batch's net effect, expands them into per-chip
// work against the host's update::ChipSet (update/chip_set.hpp, which
// then stages and applies that work), admits it under one exact rule, and
// on overflow runs the host's emergency rebalance once and then rolls
// back the batch suffix.
//
// A BGP burst delivers many messages back to back; running each one's
// ONRTC diff is unavoidable (TTF1), but everything downstream — TCAM
// writes, flat-image patches, epoch publishes, DRed probes — can be
// paid once per *net* table change instead of once per message. The
// coalescer folds the concatenated diff-op stream of a burst into its
// net effect per prefix:
//
//   insert then delete   -> nothing (the prefix never really existed)
//   delete then insert   -> modify (or nothing when the hop returns)
//   modify then modify   -> last writer wins
//   insert then modify   -> insert of the final hop
//   modify then delete   -> delete
//
// The fold is exact because ONRTC diff streams are per-prefix state
// transitions: each op either creates, rewrites, or removes one disjoint
// region, so the net transition (initial state -> final state) is all
// the data plane ever needs to install.
//
// Inserts split at the chip set's current boundaries; deletes and
// modifies expand to the chip's *stored* shapes, which after a boundary
// migration no longer match a fresh split. The exact admission rule, per chip:
//
//   projected = occupancy − stored shapes erased + insert pieces
//            <= capacity
//
// Each chip's patch erases before it writes (ChipSet::stage). The TCAM is
// order-free (§IV-B), so every transient occupancy stays at or below
// max(before, after): an admitted plan never meets a full chip mid-write.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "netbase/prefix.hpp"
#include "onrtc/compressed_fib.hpp"
#include "update/cost_model.hpp"
#include "workload/update_gen.hpp"

namespace clue::update {

class ChipSet;

/// How much work coalescing removed from a burst's diff stream.
struct CoalesceStats {
  std::size_t raw_ops = 0;     ///< ops before the fold
  std::size_t merged_ops = 0;  ///< ops actually installed

  std::size_t cancelled() const { return raw_ops - merged_ops; }
};

/// Folds `raw` (the concatenated, in-order diff ops of a burst) into the
/// minimal per-prefix net op list, first-touch order preserved. `stats`,
/// when non-null, receives the before/after op counts. One sort of the
/// op positions by (prefix, position) groups each prefix's ops; no hash
/// table is built.
std::vector<onrtc::FibOp> coalesce_ops(std::span<const onrtc::FibOp> raw,
                                       CoalesceStats* stats = nullptr);

/// One burst's end-to-end result: the TTF decomposition of the whole
/// batch (one group commit, not per message) plus admission and
/// coalescing accounting.
struct BatchTtfSample {
  TtfSample ttf;               ///< stage spans for the whole batch
  std::size_t applied = 0;     ///< messages committed (batch prefix)
  std::size_t rejected = 0;    ///< messages rolled back (batch suffix)
  std::size_t raw_ops = 0;     ///< diff ops before coalescing
  std::size_t merged_ops = 0;  ///< diff ops actually installed
};

/// One chip's share of a commit: erase `erases` first, then write
/// `writes` (insert pieces and rewritten stored shapes).
struct ChipWork {
  std::vector<netbase::Prefix> erases;
  std::vector<netbase::Route> writes;

  bool empty() const { return erases.empty() && writes.empty(); }
};

/// One stored shape a commit syncs into the DReds, and the chip that
/// stores it. DRed i never caches chip i's shapes (the exclusion rule),
/// so no host sends `chip`'s own DRed the sync.
struct DredSync {
  std::size_t chip = 0;
  netbase::Route route;
};

/// The admitted batch's data-plane work. Each ChipSet keeps one plan that
/// every BatchTxn admitted against it refills: planning clears its vectors
/// rather than replacing them, so a steady-state commit plans without
/// allocating.
struct CommitPlan {
  std::vector<ChipWork> chips;  ///< indexed by chip
  /// DRed sync (§IV-C): DReds only ever cache stored shapes, so every
  /// erased shape is erased and every rewritten one fixed in place, in
  /// every DRed but its chip's own.
  std::vector<DredSync> dred_erase;  ///< the stored route (old hop)
  std::vector<DredSync> dred_fix;    ///< route carries the new hop
  /// Planning scratch: one op's boundary pieces, one chip's stored
  /// shapes within it, and the insert pieces each chip gains.
  std::vector<std::pair<std::size_t, netbase::Prefix>> pieces;
  std::vector<netbase::Route> stored;
  std::vector<std::size_t> added;
};

class BatchTxn {
 public:
  /// TTF1: runs every message's ONRTC diff against `fib`, in order,
  /// journaling the ops and prior route of each. `fib` and `messages` must
  /// outlive the transaction.
  BatchTxn(onrtc::CompressedFib& fib,
           std::span<const workload::UpdateMsg> messages);

  /// Coalesces, plans into chips.plan() at the set's current boundaries
  /// (reading each image's route count and stored shapes) and admits
  /// under the exact rule against chips.capacity(). On overflow,
  /// `emergency_rebalance` (empty when the host does not rebalance; it
  /// returns the migrations it ran) runs once first; then messages roll
  /// back from the end of the batch, in reverse order so each inversion
  /// sees the trie state its message saw, until the rest fits. Returns the
  /// plan of the kept prefix; call once.
  const CommitPlan& admit(
      ChipSet& chips,
      const std::function<std::size_t()>& emergency_rebalance = {});

  /// TTF1 plus the admission and coalescing counts of admit().
  const BatchTtfSample& sample() const { return sample_; }
  /// Kept messages with a non-empty diff: the updates the data plane can
  /// observe.
  std::size_t effective() const;

 private:
  onrtc::CompressedFib& fib_;
  std::span<const workload::UpdateMsg> messages_;
  /// Every message's diff ops, back to back: message k's are
  /// journal_[offsets_[k], offsets_[k + 1]).
  std::vector<onrtc::FibOp> journal_;
  std::vector<std::size_t> offsets_;
  std::vector<std::optional<netbase::NextHop>> priors_;
  BatchTtfSample sample_;
};

}  // namespace clue::update
