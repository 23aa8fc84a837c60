// ClueSystem — the deployable facade over the whole paper.
//
// One object owning the complete forwarding plane: the incremental
// ONRTC control plane, N chips holding the even range partition of the
// compressed table, and the per-chip DRed stores. The chips are an
// update::ChipSet, the same chip plane runtime::LookupRuntime runs:
// partition, capacity, admission, staging and migration runs are that
// set's, and lookups home by its boundaries. This class keeps only the
// serial host's own part: modeled TTF, direct DRed sync, and patch
// bundles dropped at once, since no reader runs beside it. It answers
// lookups straight from the chips and pushes BGP updates end to end
// with TTF accounting — the API a linecard integration would program
// against. (The clock-stepped
// ParallelEngine remains the tool for throughput experiments; this class
// is about *state* fidelity: chip contents always equal the compressed
// table, split at the partition boundaries.)
//
// Boundary subtlety the paper glosses over: an update can create a
// merged region that *spans* a partition boundary. Storing it on one
// chip would make the other chip miss, so the system splits such
// regions into per-chip CIDR pieces (netbase::cidr_cover) — a few extra
// entries, each still O(1) to install.
//
// With tcam_count = 1 this is the paper's whole-path update on a single
// chip (Fig. 6), the configuration Figs. 10-14 charge CLUE with:
//   TTF1 — measured wall time of the incremental ONRTC trie update;
//   TTF2 — TCAM operations x 24 ns: a disjoint chip is order-free
//          (§IV-B), so each net op is one write or one erase, and the
//          chips update in parallel (the busiest chip's op count);
//   TTF3 — DRed synchronisation: inserts need nothing, deletes/modifies
//          are one parallel probe across all DReds per synced shape.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "engine/dred.hpp"
#include "engine/flat_table.hpp"
#include "engine/parallel_engine.hpp"
#include "obs/metrics_registry.hpp"
#include "onrtc/compressed_fib.hpp"
#include "runtime/lookup_runtime.hpp"
#include "tcam/updater.hpp"
#include "update/chip_set.hpp"
#include "update/cost_model.hpp"
#include "update/group_commit.hpp"
#include "workload/update_gen.hpp"

namespace clue::system {

using netbase::Ipv4Address;
using netbase::NextHop;
using netbase::Prefix;
using netbase::Route;

struct SystemConfig {
  std::size_t tcam_count = 4;
  /// Per-chip capacity; 0 = auto-size to 2x the initial even share plus
  /// 8192 slack (update::auto_capacity). A capacity below the initial
  /// even share makes the constructor throw std::invalid_argument.
  std::size_t tcam_capacity = 0;
  std::size_t dred_capacity = 1024;
  /// Online boundary rebalancer on/off (the planner is shared with the
  /// runtime, so the serial and concurrent planes balance identically).
  /// Off, occupancies drift freely and a full chip is a plain rejection
  /// instead of an emergency migration.
  bool rebalance = true;
};

class ClueSystem {
 public:
  ClueSystem(const trie::BinaryTrie& fib, const SystemConfig& config);

  /// Data-plane lookup on the home chip (LPM; kNoRoute when unrouted).
  NextHop lookup(Ipv4Address address);

  /// Whole-path update: trie -> affected chips -> DReds. Exactly
  /// apply_batch() of one message, plus tcam::TcamFullError when it was
  /// rejected (after rollback: no chip or DRed is touched on the rejected
  /// path, so trie, chips and DReds stay consistent).
  update::TtfSample apply(const workload::UpdateMsg& message);

  /// Group commit (update::BatchTxn): applies a whole burst as one table
  /// transition per chip. All trie diffs run first, their ops coalesce to
  /// the burst's net effect (update::coalesce_ops), and each affected
  /// chip plus the DReds are written once per net op. TTF2 is the
  /// critical path (chips update in parallel: max net ops on any one chip
  /// x 24 ns); TTF3 is one probe sweep per net delete/modify shape.
  ///
  /// Admission is exact, per chip: occupancy minus the stored shapes the
  /// net ops erase plus the insert pieces they add. Each chip's erases
  /// run before its writes, so no transient state exceeds the larger of
  /// the two. On overflow one emergency rebalance runs, then messages
  /// roll back from the *end* of the batch until the remainder fits. The
  /// committed prefix stays consistent across trie, chips, and DReds; the
  /// rejected suffix is counted (updates_rejected()) instead of throwing.
  /// After the commit a watermark crossing runs a rebalance pass.
  update::BatchTtfSample apply_batch(
      std::span<const workload::UpdateMsg> messages);

  /// Simulates lookup traffic to populate the DReds the way a running
  /// engine would: each address's home chip is the one whose range holds
  /// it, and the stored shape it matches there is cached in every DRed the
  /// exclusion rule allows (all but the home chip's). A one-chip system
  /// therefore caches nothing.
  void warm(const std::vector<Ipv4Address>& addresses);

  /// Forces one rebalance pass (update::run_rebalance_pass) regardless of
  /// watermarks; returns the number of migrations executed (0 when
  /// already even, and always 0 on one chip). Admission's emergency
  /// rebalance and the post-commit drift watch run the same pass.
  std::size_t rebalance_now();

  /// Entries currently stored per chip.
  std::vector<std::size_t> chip_occupancy() const {
    return chips_.occupancy();
  }
  /// Current max/min chip occupancy ratio (empty chips count as 1).
  double skew() const { return chips_.skew(); }
  /// The enforced per-chip capacity (explicit or auto-sized).
  std::size_t tcam_capacity() const { return chips_.capacity(); }
  /// Updates rejected with TcamFullError (after rollback).
  std::uint64_t updates_rejected() const { return updates_rejected_; }

  /// Builds an engine setup snapshot of the current chip contents, for
  /// throughput experiments against the live table.
  engine::EngineSetup engine_setup() const;

  /// Spawns a concurrent data-plane runtime from a copy of this system's
  /// CompressedFib (no re-compression): one worker thread per chip,
  /// lock-free home FIFOs, RCU-style snapshot updates.
  /// `config.worker_count == 0` means
  /// "match this system's chip count". The runtime owns its own
  /// control plane from the moment of creation; updates applied to it
  /// do not feed back into this (serial) system.
  std::unique_ptr<runtime::LookupRuntime> runtime(
      runtime::RuntimeConfig config = {}) const;

  const onrtc::CompressedFib& fib() const { return fib_; }
  const engine::FlatLookupTable& chip(std::size_t i) const {
    return chips_.chip(i);
  }
  const engine::DredStore& dred(std::size_t i) const { return *dreds_[i]; }
  std::size_t tcam_count() const { return chips_.size(); }

  /// Total entries across chips (>= fib().size() when regions had to be
  /// split at partition boundaries).
  std::size_t total_tcam_entries() const { return chips_.total_entries(); }

  /// Fills `registry` with table sizes, the control tries' bytes and
  /// arena growths, and per-chip DRed contents statistics
  /// ("system.chip<i>.dred.*": insertions vs. updates, evictions,
  /// erasures). lookup() answers from the home chip and never probes a
  /// DRed, so no DRed lookup or hit counts exist to export here; the
  /// hit-rate figures come from runtime::LookupRuntime.
  void export_metrics(obs::MetricsRegistry& registry) const;

 private:
  /// Executes one planned migration; returns entries moved.
  std::size_t migrate(const update::MigrationStep& step);

  onrtc::CompressedFib fib_;
  /// Also the indexing: lookups home by the set's boundaries, which each
  /// migration moves in place.
  update::ChipSet chips_;
  std::vector<std::unique_ptr<engine::DredStore>> dreds_;
  bool rebalance_ = true;
  std::uint64_t updates_rejected_ = 0;
  std::uint64_t rebalance_passes_ = 0;
  std::uint64_t rebalance_steps_ = 0;
  std::uint64_t entries_migrated_ = 0;
};

}  // namespace clue::system
