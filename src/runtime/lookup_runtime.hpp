// LookupRuntime — the concurrent data-plane runtime.
//
// Where engine::ParallelEngine *simulates* the paper's Fig. 1 with a
// clock loop, this subsystem *runs* it: one OS thread per TCAM chip,
// each fed through a bounded lock-free SPSC ring (the home FIFO made
// real), with the §III-B dispatch rule applied by the submitting client
// and BGP updates landing concurrently with lookups.
//
// Thread roles (externally, at most one thread per role at a time; the
// client and control roles may be different threads running
// concurrently):
//
//   client thread   lookup_batch() — dispatches jobs to the per-chip
//                   job rings (home first, stamped with the generation
//                   of the routing snapshot that homed it; home full ->
//                   idlest other chip for a DRed-only lookup, stamped
//                   with the DRed syncs pushed to that chip so far),
//                   drains completion rings, re-enqueues miss-returns to
//                   the home ring (re-stamped), and reorders results back
//                   into submission order.
//   control thread  apply() — runs the ONRTC diff and admits it against
//                   the chip plane, an update::ChipSet like the one
//                   system::ClueSystem holds (boundaries, one flat image
//                   per chip, capacity; admission, staging, migration
//                   runs and occupancy). The set stages every affected
//                   chip's diff before any applies; this runtime then
//                   publishes each staged patch in place (per address,
//                   one atomic store from the old to the new answer),
//                   bumps its version, retires what it unlinked into the
//                   epoch domain, and pushes the DRed erase/fix sweep
//                   into every worker's control ring but the storing
//                   chip's, without waiting for it to drain (diverted
//                   jobs carry a sync stamp instead; see serve_jobs).
//                   It also owns the boundary rebalancer: per-chip
//                   occupancy is re-checked after every apply(), and
//                   when skew or headroom pressure crosses a
//                   watermark (update/rebalancer.hpp), runs of
//                   boundary-adjacent entries migrate between
//                   neighboring chips — both sides staged first, then
//                   the receiver published, the boundary moved in a new
//                   routing generation, and the donor shrunk — without
//                   waiting on any worker: a job homed by an older
//                   generation that the shrunk donor cannot answer goes
//                   home again (see serve_jobs), so lookups stay correct
//                   at every intermediate step.
//   chip workers    pop jobs, look up against their chip's flat image
//                   under an epoch guard (returning home a job routed
//                   before their last shrink that the image answers
//                   kNoRoute), serve DRed-only lookups from their private
//                   DRed (or return them home while a sync their stamp
//                   covers is still queued in the control ring), exchange
//                   DRed fills (route shapes read off the flat image)
//                   over per-pair SPSC rings. No worker ever reads a
//                   trie.
//
// Patch/epoch invariant: a worker never reads a chip image without
// pinning its epoch slot first, and the control plane never parks or
// frees a block a patch unlinked until every slot has passed the retire
// epoch — lookups never block on updates, updates never corrupt lookups.
//
// All cross-thread rings are strictly single-producer single-consumer:
//   client  -> worker i   job ring
//   worker i-> client     completion ring
//   control -> worker i   control ring (DRed erase/fix)
//   worker i-> worker j   fill ring (DRed cache fills, i != j)
//   submit() -> updater   update ring (async ingress only)
//
// Waiting (runtime/backoff.hpp): idle workers and the updater park on
// their Doorbell, and the producer of every ring they consume rings it
// after a successful push — except the control role, which rings a
// worker only when its control ring is full (a parked worker's DRed sync
// waits for its next wake-up, which drains control before anything
// else); stop() rings them all. The client and the control role never
// park, and neither waits on a worker's progress: the client waits on
// its own batch's completions and ring room, the control role only on
// control-ring room and on a grace barrier after a patch unlinked
// blocks.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "engine/dred.hpp"
#include "engine/indexing_logic.hpp"
#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/ttf_trace.hpp"
#include "onrtc/compressed_fib.hpp"
#include "runtime/backoff.hpp"
#include "runtime/epoch.hpp"
#include "runtime/spsc_ring.hpp"
#include "trie/binary_trie.hpp"
#include "update/chip_set.hpp"
#include "update/cost_model.hpp"
#include "update/group_commit.hpp"
#include "workload/update_gen.hpp"

namespace clue::runtime {

using netbase::Ipv4Address;
using netbase::NextHop;
using netbase::Prefix;
using netbase::Route;

/// The runtime's settable values. Everything else — ring depths, the
/// 1-in-64 latency and 1-in-8 fill sampling strides, the DRed
/// doorkeeper (engine::DredStore::kDoorkeeperSlots), the update batch
/// bound and window, the rebalancer's watermarks and the flat-image
/// geometry — is a fixed constant of the implementation.
struct RuntimeConfig {
  std::size_t worker_count = 4;    ///< one thread per simulated chip
  std::size_t fifo_depth = 256;    ///< per-chip job ring (the home FIFO)
  std::size_t dred_capacity = 1024;  ///< per chip; 0 disables DRed+diversion
  /// Modeled per-chip TCAM capacity enforced by apply(): an update whose
  /// admission would push a chip past it triggers an emergency rebalance
  /// and, failing that, a clean TcamFullError rejection. 0 auto-sizes to
  /// (initial table / worker_count + 1) * 2 + 8192. A capacity below the
  /// initial even share makes the constructor throw
  /// std::invalid_argument.
  std::size_t chip_capacity = 0;
  /// Online boundary rebalancer on/off. Off, occupancies drift freely and
  /// a full chip is a hard TcamFullError instead of an emergency
  /// migration.
  bool rebalance = true;
  /// Async control-plane ingress: > 0 starts an updater thread fed by a
  /// bounded SPSC ring of this depth; submit() enqueues update messages
  /// and the updater drains them through apply_batch() in adaptive
  /// windows (batches of at most 256 messages, topped up for at most
  /// 128 us). 0 (the default) disables the thread — apply()/apply_batch()
  /// stay direct calls from the external control role. While the ingress
  /// is enabled it *is* the control role: do not call apply(),
  /// apply_batch(), or rebalance_now() from outside.
  std::size_t update_ring_depth = 0;
};

/// Per-worker counter names; one obs::CounterBlock per chip worker.
enum class WorkerCounter : std::size_t {
  kJobs,
  kHomeLookups,
  kDredLookups,
  kDredHits,
  kMissReturns,
  kFillsSent,
  kFillsApplied,
  kFillsDroppedFull,
  kFillsDroppedStale,
  kFillsDeclined,
  /// Diverted jobs sent home because this worker had not yet applied the
  /// DRed sync pushed before they were dispatched (a subset of
  /// kMissReturns).
  kDredSyncReturns,
  /// Home jobs routed before this worker's last shrink that its image
  /// answered kNoRoute, sent home again (a subset of kMissReturns).
  kMovedReturns,
  kCount,
};

/// Client-role counter names (one block, owned by the submitting thread).
enum class ClientCounter : std::size_t {
  kLookupsCompleted,
  kDiverted,
  kBackpressureWaits,
  kStalls,          ///< no-progress episodes that exceeded the spin bound
  kBatchesAborted,  ///< lookup_batch unblocked by stop() mid-flight
  kCount,
};

/// Aggregated counters; a consistent-enough snapshot (relaxed reads).
struct RuntimeMetrics {
  std::uint64_t lookups_completed = 0;
  std::uint64_t home_lookups = 0;  ///< all answered from the flat images
  std::uint64_t flat_bytes = 0;    ///< heap bytes of the live flat images
  /// Flat-image blocks (chunks and level-2 blocks) every patch so far
  /// took from its chip's block pool / from new; pool bytes parked now.
  std::uint64_t flat_blocks_recycled = 0;
  std::uint64_t flat_blocks_allocated = 0;
  std::uint64_t flat_pool_bytes = 0;
  /// Blocks patches unlinked (dropped chunks, collapsed level-2 blocks),
  /// parked after a grace period. Zero for pure slot patches.
  std::uint64_t flat_blocks_retired = 0;
  /// Publishes (commits and migration steps) that unlinked something and
  /// so waited out a grace barrier; the rest skip it.
  std::uint64_t grace_waits = 0;
  std::uint64_t dred_lookups = 0;
  std::uint64_t dred_hits = 0;
  std::uint64_t miss_returns = 0;  ///< DRed misses re-enqueued home
  /// Of miss_returns: diverted jobs stamped past their worker's applied
  /// DRed sync, sent home without reading the DRed.
  std::uint64_t dred_sync_returns = 0;
  /// Of miss_returns: home jobs routed before a migration shrank their
  /// chip, which its shrunk image could not answer.
  std::uint64_t moved_returns = 0;
  std::uint64_t diverted = 0;      ///< jobs sent to a non-home chip
  std::uint64_t backpressure_waits = 0;  ///< all queues full -> client spun
  std::uint64_t client_stalls = 0;   ///< spin-bound exceeded with no progress
  std::uint64_t batches_aborted = 0; ///< batches unblocked by stop()
  std::uint64_t fills_sent = 0;
  std::uint64_t fills_applied = 0;        ///< cached by the peer's DRed
  std::uint64_t fills_dropped_full = 0;   ///< fill ring full (best effort)
  std::uint64_t fills_dropped_stale = 0;  ///< home table moved on: discarded
  std::uint64_t fills_declined = 0;  ///< first offer: DRed doorkeeper said no
  std::uint64_t updates_applied = 0;
  std::uint64_t updates_rejected = 0;  ///< TcamFullError after rollback
  std::uint64_t batches_applied = 0;   ///< apply_batch() calls that published
  std::uint64_t batch_ops_raw = 0;     ///< diff ops entering coalescing
  std::uint64_t batch_ops_merged = 0;  ///< diff ops surviving coalescing
  /// Chip patches published by batch commits; batch_publishes /
  /// batches_applied is the publish-amortisation ratio (affected chips
  /// per batch — exactly one patch each).
  std::uint64_t batch_publishes = 0;
  std::uint64_t updates_submitted = 0;  ///< accepted by submit()
  std::uint64_t updates_ingested = 0;   ///< drained by the updater thread
  /// Versions published: chip patches plus indexing republishes. Each
  /// retires one bundle in the shared epoch domain, except a patch that
  /// unlinked nothing, which counts as reclaimed at once.
  std::uint64_t tables_published = 0;
  std::uint64_t tables_reclaimed = 0;
  std::uint64_t tables_pending = 0;  ///< retired, not yet reclaimed
  std::uint64_t rebalance_passes = 0;
  std::uint64_t rebalance_steps = 0;    ///< individual chip migrations
  std::uint64_t entries_migrated = 0;   ///< entries moved across boundaries
  std::vector<std::uint64_t> per_worker_jobs;
  std::vector<std::size_t> chip_occupancy;  ///< entries stored per chip
  double skew = 1.0;  ///< max/min chip occupancy (empty chips count as 1)

  double dred_hit_rate() const {
    return dred_lookups ? static_cast<double>(dred_hits) /
                              static_cast<double>(dred_lookups)
                        : 0.0;
  }
};

class LookupRuntime {
 public:
  /// Compresses `fib` (ONRTC), splits it into `worker_count` even range
  /// partitions, and starts the worker threads.
  LookupRuntime(const trie::BinaryTrie& fib, const RuntimeConfig& config);
  /// Same, starting from an already compressed control plane: copies
  /// `fib` (two array copies) instead of compressing its ground truth.
  LookupRuntime(const onrtc::CompressedFib& fib, const RuntimeConfig& config);
  ~LookupRuntime();

  LookupRuntime(const LookupRuntime&) = delete;
  LookupRuntime& operator=(const LookupRuntime&) = delete;

  /// Client role. Dispatches every address, waits for all completions,
  /// and returns next hops in submission order (the reorder stage).
  /// When `latency_ns` is non-null it is filled with one per-address
  /// submit-to-completion latency sample.
  std::vector<NextHop> lookup_batch(std::span<const Ipv4Address> addresses,
                                    std::vector<double>* latency_ns = nullptr);

  /// Convenience single lookup (a batch of one).
  NextHop lookup(Ipv4Address address);

  /// Control role. Applies one BGP update end to end: ONRTC diff
  /// (TTF1), admission + in-place flat-image patch of affected chips
  /// (TTF2), DRed erase/fix sweep pushed to the workers (TTF3; no ack is
  /// awaited). Returns wall-clock nanoseconds per stage; lookups proceed
  /// concurrently. Every lookup submitted after it returns sees the
  /// update, DRed answers included.
  ///
  /// Admission control: an update that would push a chip past
  /// chip_capacity() first triggers an emergency rebalance; if even a
  /// balanced layout cannot absorb it, the trie diff is rolled back (no
  /// chip table or DRed is touched — trie/TCAM/DRed stay mutually
  /// consistent), updates_rejected is counted, and tcam::TcamFullError
  /// is thrown. After a successful apply, a skew- or headroom-watermark
  /// crossing runs an ordinary rebalance pass before returning.
  update::TtfSample apply(const workload::UpdateMsg& message);

  /// Control role. Group commit: applies a whole burst of updates as one
  /// table transition per affected chip. All ONRTC diffs run first
  /// (TTF1), the combined diff-op stream is coalesced to its net effect
  /// (insert+delete pairs cancel, modifies last-writer-win), each
  /// affected chip's patch is staged, and only once every chip staged is
  /// any applied — one in-place patch per chip per batch, closed by a
  /// single grace barrier when a patch unlinked blocks — and all DRed
  /// erase/fix messages go out as one batched sweep per worker ring,
  /// each skipping the shapes that worker's own chip stores (TTF3).
  ///
  /// Admission (update::BatchTxn, shared with the serial hosts) is exact
  /// and decided before any chip is touched: per chip, occupancy minus
  /// the stored shapes erased plus the insert pieces added. On overflow
  /// one emergency rebalance runs, then messages roll back from the *end*
  /// of the batch until the remainder fits. Never throws: the rejected
  /// suffix is reported in the returned sample (and updates_rejected)
  /// and trie/chips/DReds stay mutually consistent. apply() is exactly
  /// apply_batch() of one message plus a throw when that message was
  /// rejected.
  update::BatchTtfSample apply_batch(
      std::span<const workload::UpdateMsg> messages);

  /// Async ingress (enabled by RuntimeConfig::update_ring_depth > 0).
  /// Enqueues one update for the updater thread; single producer. Waits
  /// (runtime::Backoff) while the ring is full; returns false only when
  /// the ingress is disabled or the runtime stopped before the message
  /// was accepted.
  bool submit(const workload::UpdateMsg& message);
  /// Waits until every submit()-accepted update has been applied by the
  /// updater thread (or the runtime stopped). Call from the submitting
  /// thread after its last submit().
  void flush_updates();

  /// Control role. Forces one rebalance pass regardless of watermarks;
  /// returns the number of migrations executed (0 when already even).
  std::size_t rebalance_now();

  /// Entries currently stored per chip (updated by the control role on
  /// every publish; readable from any thread).
  std::vector<std::size_t> chip_occupancy() const;
  /// Current max/min chip occupancy ratio (empty chips count as 1).
  double skew() const;
  /// The enforced per-chip capacity (explicit or auto-sized).
  std::size_t chip_capacity() const { return chips_.capacity(); }

  /// Stops the runtime: workers drain and exit, and any in-flight
  /// lookup_batch (even on another thread) unblocks, returning kNoRoute
  /// for addresses it never got an answer for (counted in
  /// RuntimeMetrics::batches_aborted). Once the workers are joined, any
  /// DRed sync still queued in a control ring is applied, so dred()
  /// shows every commit's sync. Idempotent; the destructor calls it.
  /// After stop(), lookup_batch returns immediately and apply() must not
  /// be called.
  void stop();
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  /// Parks the blocks of retired patches all workers have quiesced past.
  std::size_t reclaim() { return epoch_.reclaim(); }

  /// Updates fully visible to the data plane: tables published and DRed
  /// syncs pushed, so every lookup submitted afterwards sees them (a
  /// diverted job whose DRed has not yet applied the sync goes home). A
  /// DRed's contents catch up when its worker next drains its control
  /// ring, or at stop(). Monotonic; bumped at the end of apply() and, by
  /// the number of applied messages, at the end of apply_batch() — a
  /// batch exposes only its boundary states, so both counters move
  /// across it without any intermediate value becoming observable.
  std::uint64_t updates_completed() const {
    return updates_completed_.load(std::memory_order_seq_cst);
  }
  /// Updates whose publication has begun. Any lookup answer ever
  /// produced reflects a table state in [updates_completed() sampled
  /// before submit, updates_started() sampled after completion].
  std::uint64_t updates_started() const {
    return updates_started_.load(std::memory_order_seq_cst);
  }

  const onrtc::CompressedFib& fib() const { return fib_; }
  /// The current indexing function. Rebalancing republishes it; only
  /// call this when no rebalance can run concurrently (tests,
  /// post-mortems) — the client role reads it under an epoch pin.
  const engine::IndexingLogic& indexing() const {
    return routing_.load(std::memory_order_acquire)->logic;
  }
  /// Range-partition boundaries (ascending, worker_count-1 of them).
  /// Control-role state: rebalancing rewrites it, so read only from the
  /// control thread or while updates are quiescent.
  const std::vector<Ipv4Address>& boundaries() const {
    return chips_.boundaries();
  }
  /// The routes chip `chip` stores, in address order (a walk of its
  /// image). Control-role state: read only from the control thread or
  /// while updates are quiescent.
  std::vector<Route> chip_routes(std::size_t chip) const {
    return chips_.chip(chip).stored_within(Prefix());
  }
  std::size_t worker_count() const { return workers_.size(); }
  const RuntimeConfig& config() const { return config_; }

  RuntimeMetrics metrics() const;

  // ---- observability exports (all off the hot path) ----

  /// Fills `registry` with every runtime counter, per-worker service-time
  /// histograms ("runtime.worker<i>.service_ns"), the client latency
  /// histogram ("runtime.client.latency_ns", populated when lookup_batch
  /// is called with latency sampling), and the TTF trace ("runtime.ttf").
  void export_metrics(obs::MetricsRegistry& registry) const;

  /// Per-worker service-time histogram (sampled 1-in-64 jobs).
  obs::HistogramSnapshot worker_service_histogram(std::size_t worker) const;
  /// Submit-to-completion latencies recorded by lookup_batch when the
  /// caller asks for latency samples (sampled 1-in-64 completions).
  obs::HistogramSnapshot client_latency_histogram() const;
  /// The most recent apply() traces, oldest first.
  std::vector<obs::TtfTraceEntry> ttf_trace() const;

  /// Worker `i`'s DRed store, or nullptr when DRed is disabled. Workers
  /// mutate their DReds concurrently: only read this after stop() (which
  /// applies every queued sync) — tests, post-mortems.
  const engine::DredStore* dred(std::size_t worker) const {
    return workers_[worker]->dred.get();
  }

 private:
  // Ring slots stay 16 bytes, four to a cache line: packed to 12 bytes,
  // jobs and completions straddle lines, which cost ~5% of perfbench's
  // lookup-zipf p50 on a 4-vCPU VM.
  struct alignas(16) Job {
    Ipv4Address address{0};
    std::uint32_t index = 0;
    bool dred_only = false;
    /// A home job's stamp is the generation of the routing snapshot that
    /// homed it: a worker that shrank after that generation and answers
    /// kNoRoute sends the job home. A diverted job's stamp is the low 32
    /// bits of its worker's control_pushed at dispatch: the worker reads
    /// its DRed for the job only once it has applied that many control
    /// messages; until then it sends the job home. Both compare
    /// wrap-safe.
    std::uint32_t sync_stamp = 0;
  };
  static_assert(sizeof(Job) == 16, "a job slot stays 16 bytes");
  struct alignas(16) Completion {
    std::uint32_t index = 0;
    NextHop hop = netbase::kNoRoute;
    bool miss_return = false;
  };
  /// A DRed sync: erase an entry, or rewrite it in place.
  struct ControlMsg {
    enum class Kind : std::uint8_t { kErase, kFix };
    Kind kind = Kind::kErase;
    Route route;
  };
  /// A DRed fill; its home chip is the producer of the ring it travels.
  struct FillMsg {
    Route route;
    std::uint64_t version = 0;
  };

  /// What the client routes by: the indexing logic and the generation it
  /// was published at (one per boundary move). Immutable once published.
  struct Routing {
    engine::IndexingLogic logic;
    std::uint32_t generation = 0;
  };

  struct Worker {
    std::unique_ptr<SpscRing<Job>> jobs;
    std::unique_ptr<SpscRing<Completion>> completions;
    std::unique_ptr<SpscRing<ControlMsg>> control;
    /// fills[i]: ring produced by worker i, consumed by this worker.
    std::vector<std::unique_ptr<SpscRing<FillMsg>>> fills;
    /// Bumped by the control role after every patch's stores; a worker
    /// loads it (before its batch's image loads) to stamp DRed fills, and
    /// a fill older than its home chip's version is stale.
    std::atomic<std::uint64_t> published_version{0};
    /// Control messages this worker has applied (only it writes it, or
    /// stop() once it is joined).
    std::atomic<std::uint64_t> control_applied{0};
    /// Control messages pushed to this worker, published by the control
    /// role after each push and loaded by the client to stamp a diverted
    /// job. On its own line: a commit's store must not invalidate the one
    /// holding published_version and control_applied, which the worker
    /// reads every batch.
    struct alignas(64) {
      std::atomic<std::uint64_t> value{0};
    } control_pushed;
    /// Entries in the image (its route count); written at every publish,
    /// read by chip_occupancy() and the metrics from any thread (the
    /// control role plans rebalancing off the images themselves).
    std::atomic<std::size_t> occupancy{0};
    std::unique_ptr<engine::DredStore> dred;
    /// memory_bytes() of the flat image; written by the control role at
    /// publish, read by the metrics exporter.
    std::atomic<std::size_t> flat_bytes{0};
    /// Rung by the client after pushing jobs, by peers after pushing
    /// fills, and by the control role while the control ring is full.
    Doorbell bell;
    obs::CounterBlock<WorkerCounter> counters;
    obs::LatencyHistogram service_hist;
    /// Worker-private job count for the sampling decision — plain (not
    /// atomic) because only the owning thread reads or writes it.
    std::uint64_t jobs_seen = 0;
    /// Worker-private home-hit count for fill-harvest sampling.
    std::uint64_t hits_seen = 0;
    /// Test hook: Stall bits holding this worker's control drain or job
    /// serving (set only through LookupRuntimeTestAccess; 0 outside
    /// tests).
    std::atomic<std::uint8_t> stalled{0};
    /// The routing generation of this chip's last shrink, stored by the
    /// control role before the shrinking patch. Beside the worker-private
    /// counts: outside tests, no other thread writes this line but once
    /// per migration off this chip.
    std::atomic<std::uint32_t> moved_gen{0};
    std::thread thread;
  };

  /// Backoff-waits until `ready()` holds or the runtime stops; returns
  /// whether it holds. Every bounded hand-off waits through this.
  template <typename Ready>
  bool wait_until(Ready&& ready);

  void worker_main(std::size_t w);
  /// The one job path: pops up to kWorkerBatch jobs, pins the epoch once,
  /// prefetches the flat-table lines across the batch, resolves in order
  /// (timing 1 in 64; a diverted job stamped past control_applied, or a
  /// home job stamped before moved_gen that the image answers kNoRoute,
  /// goes home), adds the batch's counts, sends its sampled fills and
  /// pushes every completion, waiting while the completion ring is full.
  /// Returns the jobs served.
  std::size_t serve_jobs(std::size_t w);
  bool drain_control(std::size_t w);
  /// Applies one DRed erase/fix to `worker`'s DRed.
  static void apply_sync(Worker& worker, const ControlMsg& msg);
  /// Pops every peer's fill ring in batches into this worker's DRed,
  /// dropping fills older than their home chip's published version.
  bool drain_fills(std::size_t w);
  /// Offers one batch's `count` fills to every peer DRed that may cache
  /// worker w's routes: one push and one ring per peer.
  void send_fills(std::size_t w, FillMsg* fills, std::size_t count);

  /// Client-side push into worker w's job ring (rings it when anything
  /// landed); returns the jobs accepted.
  std::size_t push_jobs(std::size_t w, Job* jobs, std::size_t count);
  /// Client-side dispatch of one job, stamped with `routing`'s generation;
  /// false = all queues full. `routing` is the epoch-pinned snapshot the
  /// caller loaded.
  bool try_submit(const Routing& routing, Job job);
  /// Home ring was full: §III-B fallback — retry home or divert to the
  /// idlest chip as a DRed-only job. Uses occupancy_scratch_.
  bool try_divert(std::size_t home, Job job);

  // ---- control-role internals (single control thread at a time) ----

  /// Applies every patch in `staged` (staged by chips_, all before any is
  /// applied), bumps each chip's published_version and occupancy, and
  /// retires what each patch unlinked. When any patch unlinked blocks,
  /// waits out one grace barrier (a publish of pure slot patches skips
  /// it). Returns the chips patched; adds each chip's stage + apply span
  /// (flat_ns) and the grace span to `trace` when given.
  std::size_t publish(std::span<update::StagedPatch> staged,
                      obs::TtfTraceEntry* trace = nullptr);
  /// Publishes a routing snapshot for the chips' boundaries at the next
  /// generation, retires the old one, and returns the new generation.
  /// Waits for nothing: a client may route one more pass by the old one.
  std::uint32_t publish_indexing();
  /// Lands `count` control messages on worker `chip` with as few
  /// ring-cursor updates as the free space allows, waiting (wait_until)
  /// while the ring is full, then publishes the worker's new
  /// control_pushed. Rings the worker only while the ring is full.
  void push_control_n(std::size_t chip, ControlMsg* msgs, std::size_t count);
  /// Executes one planned migration; returns entries moved.
  std::size_t migrate(const update::MigrationStep& step);
  /// One run_rebalance_pass over the chips, cut short by stop(); returns
  /// steps run. Adds the pass's steps, migrated entries and wall time to
  /// `trace` when given.
  std::size_t rebalance_pass(obs::TtfTraceEntry* trace = nullptr);

  /// Updater-thread main loop: pops submitted updates in adaptive
  /// windows and runs them through apply_batch().
  void updater_main();

  /// The control plane a constructor starts from, with the wall time it
  /// took to build (both public constructors delegate through this).
  struct TimedFib {
    onrtc::CompressedFib fib;
    double build_ns = 0;

    template <typename Build>
    static TimedFib of(Build&& build);
  };
  LookupRuntime(TimedFib fib, const RuntimeConfig& config);

  RuntimeConfig config_;
  onrtc::CompressedFib fib_;
  std::atomic<Routing*> routing_{nullptr};
  EpochDomain epoch_;
  /// The chip plane: boundaries (control-role state) and each chip's one
  /// flat image (chip i is worker i's), patched in place by the control
  /// role and read under an epoch pin by its worker: hops and stored route
  /// shapes alike. No trie, and no per-publish copy.
  update::ChipSet chips_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};
  bool dred_enabled_ = false;
  /// The client role's epoch slot (slot worker_count); pins the routing
  /// snapshot for one dispatch pass.
  std::size_t client_slot_ = 0;

  // Client-role scratch, reused across lookup_batch calls so the steady
  // state allocates nothing per batch (client is single-threaded by
  // contract). stage_[w] collects jobs homed to worker w for one
  // try_push_n; backlog_ holds jobs every ring rejected; returns_ holds
  // DRed misses awaiting home-ring room; submitted_ holds latency stamps.
  std::vector<std::vector<Job>> stage_;
  std::vector<Job> backlog_;
  std::vector<Job> returns_;
  std::vector<Completion> drain_scratch_;
  std::vector<std::size_t> occupancy_scratch_;
  std::vector<std::chrono::steady_clock::time_point> submitted_;

  std::atomic<std::uint64_t> updates_started_{0};
  std::atomic<std::uint64_t> updates_completed_{0};
  std::atomic<std::uint64_t> updates_rejected_{0};
  std::atomic<std::uint64_t> rebalance_passes_{0};
  std::atomic<std::uint64_t> rebalance_steps_{0};
  std::atomic<std::uint64_t> entries_migrated_{0};
  std::atomic<std::uint64_t> batches_applied_{0};
  std::atomic<std::uint64_t> batch_ops_raw_{0};
  std::atomic<std::uint64_t> batch_ops_merged_{0};
  std::atomic<std::uint64_t> batch_publishes_{0};

  // Async ingress (null/absent unless config.update_ring_depth > 0).
  std::unique_ptr<SpscRing<workload::UpdateMsg>> update_ring_;
  Doorbell update_bell_;  ///< rung by submit(); the updater parks on it
  std::thread updater_thread_;
  std::atomic<std::uint64_t> updates_submitted_{0};
  std::atomic<std::uint64_t> updates_ingested_{0};

  /// One worker's DRed sweep, cleared and refilled per worker per commit
  /// and per migration (the receiver's erase sweep).
  std::vector<ControlMsg> sweep_;
  std::atomic<std::uint64_t> tables_published_{0};
  /// Published patches that unlinked nothing: reclaimed on the spot.
  std::atomic<std::uint64_t> patches_unretired_{0};
  std::atomic<std::uint64_t> flat_blocks_retired_{0};
  std::atomic<std::uint64_t> grace_waits_{0};

  // Client-role observability (single writer: the client thread).
  obs::CounterBlock<ClientCounter> client_counters_;
  obs::LatencyHistogram client_hist_;
  /// Client-private completion count for latency sampling — plain (not
  /// atomic) because only the client thread touches it.
  std::uint64_t client_samples_seen_ = 0;

  // Control-role observability.
  obs::TtfTraceRing ttf_ring_;
  /// Wall time of each apply_batch() call, entry to return (control
  /// thread is the single writer; exported as "runtime.batch_apply_ns").
  obs::LatencyHistogram batch_apply_hist_;
  /// Wall time of each rebalance pass (control thread is the single
  /// writer; exported as "runtime.rebalance_ns").
  obs::LatencyHistogram rebalance_hist_;
  /// Wall time of each chip patch (stage + apply) a commit or a migration
  /// ran (control thread is the single writer; exported as
  /// "runtime.flat_rebuild_ns").
  obs::LatencyHistogram flat_rebuild_hist_;
  /// Wall time of the constructor's CompressedFib build: the ONRTC
  /// compression, or the copy of a given CompressedFib (exported as the
  /// gauge "runtime.fib_build_ns").
  double fib_build_ns_ = 0;
  /// fib_.memory_bytes() and fib_.trie_growths(), refreshed by each
  /// commit so export_metrics() can run beside the control thread (gauge
  /// "onrtc.trie_bytes", counter "onrtc.trie_growths").
  std::atomic<std::size_t> trie_bytes_{0};
  std::atomic<std::uint64_t> trie_growths_{0};

  std::mutex stop_mutex_;  // serialises the join in stop()

  /// The test hook's bits (Worker::stalled): kStallControl leaves the
  /// control ring undrained, kStallJobs the job ring unserved. No control
  /// message pushed after a stall is applied; the job ring is checked
  /// once per pass, so the pass under way may still serve one batch. A
  /// stalled worker parks; the hook rings it on release.
  enum Stall : std::uint8_t { kStallControl = 1, kStallJobs = 2 };
  /// Whether the test hook holds `what` of `worker`.
  static bool stalled(const Worker& worker, Stall what) {
    return worker.stalled.load(std::memory_order_acquire) & what;
  }
  /// Defined by the tests only: sets and clears Worker::stalled and reads
  /// the control counters. No config field or environment variable
  /// reaches the hook.
  friend struct LookupRuntimeTestAccess;
};

}  // namespace clue::runtime
