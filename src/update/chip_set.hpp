// ChipSet — a host's chip plane, the one object both update hosts
// (system::ClueSystem, runtime::LookupRuntime) commit to.
//
// The paper's §III-A splits the sorted, disjoint compressed table into
// contiguous, exactly even ranges, one per chip, and every chip is
// order-free (§IV-B): a commit is per-chip erase/write work, and a
// migration is one write on the receiver and one erase on the donor per
// route. ChipSet holds that plane once: the range boundaries (chip i owns
// the addresses from boundaries[i-1] up to boundaries[i]; one chip has
// none), one engine::FlatLookupTable image per chip, the enforced
// per-chip capacity, and the CommitPlan every BatchTxn refills in place.
//
// Every change to an image goes through stage-all-or-nothing: each touched
// chip's patch is staged before any is applied, so a diff an image
// rejects throws with no chip touched. A migration stages both of its
// sides (the receiver's gain, the donor's loss) before the host applies
// either, so nothing in the host's migration protocol can throw from a
// stage once its first side is live. The host then applies the staged
// patches in its own order, moves the boundary here, and rebuilds or
// republishes its own indexing. The set also plans every DRed sync, one
// list per DRed (CommitPlan::sweeps, StagedMigration::sweep), so the
// exclusion rule (DRed i never caches chip i's shapes, §III-C) is decided
// here once. How an applied patch is published (the runtime's epoch
// retire, ClueSystem's dropping the bundle at once), the indexing and the
// delivery of each sweep stay the host's own.
//
// Thread-safety: one writer, the host's control role. Other threads may
// only read chip images through chip(i) (FlatLookupTable's concurrent
// readers); everything else is writer-side state.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "engine/dred.hpp"
#include "engine/flat_table.hpp"
#include "engine/indexing_logic.hpp"
#include "netbase/prefix.hpp"
#include "partition/partition.hpp"
#include "update/group_commit.hpp"
#include "update/rebalancer.hpp"

namespace clue::update {

/// Auto-sized per-chip capacity: a chip's initial `share` of entries plus
/// `headroom` (a fraction, clamped at 0) of growth room, plus 8192 slack.
std::size_t auto_capacity(std::size_t share, double headroom);

/// The concrete run one MigrationStep moves.
struct MigrationRun {
  /// The routes moved, in address order; empty = nothing executable.
  std::vector<netbase::Route> routes;
  std::size_t boundary = 0;  ///< index of the shared boundary that moves
  netbase::Ipv4Address new_boundary{};  ///< that boundary's new address
};

/// One chip's staged patch. Dropping it unapplied discards the patch.
struct StagedPatch {
  std::size_t chip = 0;
  engine::FlatLookupTable::Patch patch;
  double ns = 0;  ///< wall time of the stage, plus the apply once applied
};

/// A migration staged on both of its chips. Dropped unapplied, it leaves
/// every image and boundary as it was.
struct StagedMigration {
  MigrationRun run;  ///< empty routes: nothing executable, nothing staged
  StagedPatch gain;  ///< the receiver's: every route of the run written
  StagedPatch loss;  ///< the donor's: every route of the run erased
  /// The receiver's DRed sync: one erase per route of the run, which is
  /// now the receiver's own. Other DReds keep their copies: the routes
  /// did not change.
  std::vector<engine::DredSync> sweep;
};

/// Cache-line aligned: its first line holds the image pointers that
/// readers on other threads load, apart from the commit scratch (plan(),
/// the staged patches) the control role rewrites on every commit and from
/// the host's neighbouring members.
class alignas(64) ChipSet {
 public:
  /// A host's chip plane: `table` (sorted, disjoint) split into `chips`
  /// even ranges (partition::even_partition). The enforced capacity is
  /// `requested`, or when 0 auto_capacity(even share + 1, 1.0), room for a
  /// chip to grow to twice its initial share. Throws
  /// std::invalid_argument, naming `host`, for no chips, or (with both
  /// sizes) before any image is painted when that capacity cannot hold the
  /// largest bucket.
  static ChipSet even(const char* host,
                      const std::vector<netbase::Route>& table,
                      std::size_t chips, std::size_t requested);

  /// Chip i painted from `layout.buckets[i]`, at `layout.boundaries`
  /// (exactly one fewer than the buckets, else std::invalid_argument), with
  /// `capacity` entries per chip; the capacity is not checked against the
  /// buckets.
  ChipSet(const partition::PartitionResult& layout, std::size_t capacity);

  std::size_t size() const { return images_.size(); }
  /// Ascending, size() - 1 of them.
  const std::vector<netbase::Ipv4Address>& boundaries() const {
    return boundaries_;
  }
  /// The enforced per-chip capacity, in entries.
  std::size_t capacity() const { return capacity_; }
  /// The chip whose range holds `address`.
  std::size_t chip_of(netbase::Ipv4Address address) const {
    return engine::bucket_index(boundaries_, address);
  }
  /// Chip `i`'s image: the chip's only representation.
  const engine::FlatLookupTable& chip(std::size_t i) const {
    return *images_[i];
  }
  /// The plan every BatchTxn admitted against this set refills in place.
  CommitPlan& plan() { return plan_; }
  /// Wall time the constructor spent painting the images.
  double build_ns() const { return build_ns_; }

  /// Entries stored per chip.
  std::vector<std::size_t> occupancy() const;
  /// max/min chip occupancy (empty chips count as 1).
  double skew() const { return occupancy_skew(occupancy()); }
  /// Entries across every chip.
  std::size_t total_entries() const;
  /// The fraction of capacity() the fullest chip still has free.
  double headroom_remaining() const {
    return update::headroom_remaining(occupancy(), capacity_);
  }

  /// Stages every chip `work[i]` names work for (erases, then writes),
  /// all before any is applied: a diff an image rejects throws with the
  /// patches staged so far discarded and no chip touched. Returns the
  /// staged patches, in chip order, for apply(); they stay valid until the
  /// next stage().
  std::span<StagedPatch> stage(std::span<const ChipWork> work);

  /// Publishes `staged` to its chip's concurrent readers, adds the apply
  /// time to staged.ns, and returns what the patch unlinked: keep it until
  /// no reader can still hold those blocks.
  engine::FlatLookupTable::Retired apply(StagedPatch& staged);

  /// Selects the boundary-adjacent run for `step` off the donor's image:
  /// the top `count` stored routes moving right, the bottom `count` moving
  /// left. Only that edge of the image is walked (the run, plus the first
  /// kept route moving left), so a step costs the run, not the chip. The
  /// count is clamped to what the donor holds, to keep at least one route
  /// on a leftward donor (so its upper boundary stays at a real stored
  /// address), and to the receiver's free room under capacity(). The new
  /// boundary is where the receiver's range now ends or begins: the first
  /// moved route's low address moving right, the first kept route's
  /// moving left.
  MigrationRun migration_run(const MigrationStep& step) const;

  /// Selects `step`'s run, stages both of its sides and plans the
  /// receiver's sweep; with an empty run nothing is staged. The boundary
  /// stays until move_boundary().
  StagedMigration stage_migration(const MigrationStep& step);

  /// Moves the boundary `run` names to its new address.
  void move_boundary(const MigrationRun& run) {
    boundaries_[run.boundary] = run.new_boundary;
  }

 private:
  StagedPatch stage_chip(std::size_t chip,
                         std::span<const netbase::Prefix> erases,
                         std::span<const netbase::Route> writes);

  std::vector<netbase::Ipv4Address> boundaries_;
  std::vector<std::unique_ptr<engine::FlatLookupTable>> images_;
  std::size_t capacity_ = 0;
  double build_ns_ = 0;
  CommitPlan plan_;
  /// The patches the last stage() staged (reused).
  std::vector<StagedPatch> staged_;
};

}  // namespace clue::update
