#include "runtime/lookup_runtime.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "engine/dispatch_policy.hpp"
#include "tcam/updater.hpp"

namespace clue::runtime {

namespace {

using Clock = std::chrono::steady_clock;
using update::elapsed_ns;

// Batch sizes for the ring drains: large enough to amortise the cursor
// atomics and overlap flat-table prefetches across a batch, small
// enough to keep per-job latency low.
constexpr std::size_t kWorkerBatch = 32;   // jobs popped per worker pass
constexpr std::size_t kDrainBatch = 64;    // completions popped per pass
constexpr std::size_t kClientStage = 256;  // addresses staged per pass

// Ring depths besides the home FIFO: per-worker completions, control
// messages (DRed erase/fix) and per-pair DRed fills.
constexpr std::size_t kCompletionDepth = 1024;
constexpr std::size_t kControlDepth = 4096;
constexpr std::size_t kFillDepth = 256;
// Retained apply() traces (TTF spans + queue depths).
constexpr std::size_t kTtfTraceDepth = 1024;
// Workers time one in every 64 jobs into their service-time histogram
// and the client records one in every 64 completion latencies: two
// clock reads per 64 lookups, noise.
constexpr std::uint64_t kLatencySampleMask = 64 - 1;
// Workers offer a DRed fill on one in every 8 home hits, which bounds
// the fill-ring traffic per lookup; a peer's DRed admits an uncached
// route on its second offer (engine::DredStore::offer).
constexpr std::uint64_t kFillSampleMask = 8 - 1;
// Async ingress: the largest batch one updater pass hands to
// apply_batch(), and the upper bound of its adaptive batch window.
constexpr std::size_t kUpdateBatchMax = 256;
constexpr double kUpdateWindowUs = 128.0;

}  // namespace

template <typename Ready>
bool LookupRuntime::wait_until(Ready&& ready) {
  for (Backoff backoff; !ready(); backoff.pause()) {
    if (stop_.load(std::memory_order_acquire)) return false;
  }
  return true;
}

template <typename Build>
LookupRuntime::TimedFib LookupRuntime::TimedFib::of(Build&& build) {
  const auto t0 = Clock::now();
  onrtc::CompressedFib fib = build();
  return TimedFib{std::move(fib), elapsed_ns(t0)};
}

LookupRuntime::LookupRuntime(const trie::BinaryTrie& fib,
                             const RuntimeConfig& config)
    : LookupRuntime(
          TimedFib::of([&fib] { return onrtc::CompressedFib(fib); }),
          config) {}

LookupRuntime::LookupRuntime(const onrtc::CompressedFib& fib,
                             const RuntimeConfig& config)
    : LookupRuntime(TimedFib::of([&fib] { return fib; }), config) {}

LookupRuntime::LookupRuntime(TimedFib fib, const RuntimeConfig& config)
    : config_(config),
      fib_(std::move(fib.fib)),
      // One slot per worker plus one for the client role, which pins the
      // IndexingLogic snapshot during each dispatch pass.
      epoch_(config.worker_count + 1),
      // Throws on no workers or a capacity below the initial share before
      // anything below is allocated: a throwing constructor runs no
      // destructor.
      chips_(update::ChipSet::even("LookupRuntime", fib_.compressed().routes(),
                                   config.worker_count, config.chip_capacity)),
      client_slot_(config.worker_count),
      ttf_ring_(kTtfTraceDepth) {
  if (config.fifo_depth == 0) {
    throw std::invalid_argument("LookupRuntime: fifo_depth must be positive");
  }
  dred_enabled_ = config.dred_capacity > 0 && config.worker_count > 1;

  fib_build_ns_ = fib.build_ns;
  trie_bytes_.store(fib_.memory_bytes(), std::memory_order_relaxed);
  trie_growths_.store(fib_.trie_growths(), std::memory_order_relaxed);
  routing_.store(new Routing{engine::IndexingLogic(chips_.boundaries())},
                 std::memory_order_seq_cst);

  workers_.reserve(config.worker_count);
  for (std::size_t i = 0; i < config.worker_count; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->jobs = std::make_unique<SpscRing<Job>>(config.fifo_depth);
    worker->completions =
        std::make_unique<SpscRing<Completion>>(kCompletionDepth);
    worker->control =
        std::make_unique<SpscRing<engine::DredSync>>(kControlDepth);
    if (dred_enabled_) {
      worker->fill_stamps.resize(config.worker_count);
      worker->fills.resize(config.worker_count);
      for (std::size_t peer = 0; peer < config.worker_count; ++peer) {
        if (peer == i) continue;
        worker->fills[peer] =
            std::make_unique<SpscRing<FillMsg>>(kFillDepth);
      }
      worker->dred =
          std::make_unique<engine::DredStore>(config.dred_capacity);
    }
    worker->flat_bytes.store(chips_.chip(i).memory_bytes(),
                             std::memory_order_relaxed);
    worker->occupancy.store(chips_.chip(i).route_count(),
                            std::memory_order_relaxed);
    workers_.push_back(std::move(worker));
  }
  stage_.resize(config.worker_count);
  drain_scratch_.resize(kDrainBatch);
  for (std::size_t i = 0; i < config.worker_count; ++i) {
    workers_[i]->thread = std::thread([this, i] { worker_main(i); });
  }
  if (config.update_ring_depth > 0) {
    update_ring_ = std::make_unique<SpscRing<workload::UpdateMsg>>(
        config.update_ring_depth);
    updater_thread_ = std::thread([this] { updater_main(); });
  }
}

void LookupRuntime::stop() {
  stop_.store(true, std::memory_order_seq_cst);
  // Parked threads see stop_ only once rung.
  update_bell_.ring();
  for (auto& worker : workers_) worker->bell.ring();
  std::lock_guard<std::mutex> lock(stop_mutex_);
  // Updater first: it must stop pushing syncs before the drain below.
  if (updater_thread_.joinable()) updater_thread_.join();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  // A worker exits once a pass finds nothing, so a sync pushed after its
  // last drain (or held by the test hook) is still queued: apply it now
  // that this thread is the ring's only consumer, with the hook's bits
  // cleared.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    workers_[w]->stalled.store(0, std::memory_order_relaxed);
    drain_control(w);
  }
}

LookupRuntime::~LookupRuntime() {
  stop();
  delete routing_.load(std::memory_order_relaxed);
  // epoch_'s destructor releases any still-retired bundles into their
  // images' pools (each bundle holds its pool).
}

// ---------------------------------------------------------------- workers

void LookupRuntime::worker_main(std::size_t w) {
  Worker& me = *workers_[w];
  // Park condition: a message in any ring this worker consumes (and the
  // test hook does not hold), or stop.
  const auto ready = [&] {
    if (stop_.load(std::memory_order_acquire) ||
        (!me.jobs->empty_approx() && !stalled(me, kStallJobs)) ||
        (!me.control->empty_approx() && !stalled(me, kStallControl))) {
      return true;
    }
    if (stalled(me, kStallFills)) return false;
    for (const auto& fills : me.fills) {
      if (fills && !fills->empty_approx()) return true;
    }
    return false;
  };
  Backoff backoff;
  for (;;) {
    bool progress = drain_control(w);
    if (dred_enabled_ && !stalled(me, kStallFills)) {
      progress |= drain_fills(w);
    }
    if (!stalled(me, kStallJobs)) progress |= serve_jobs(w) > 0;
    if (progress) {
      backoff.reset();
    } else if (stop_.load(std::memory_order_acquire)) {
      break;
    } else {
      idle_step(backoff, me.bell, ready);
    }
  }
}

std::size_t LookupRuntime::serve_jobs(std::size_t w) {
  Worker& me = *workers_[w];
  std::array<Job, kWorkerBatch> jobs;
  const std::size_t n = me.jobs->try_pop_n(jobs.data(), jobs.size());
  if (n == 0) return 0;
  std::array<Completion, kWorkerBatch> done;
  // The batch's sampled fills and its counts stay worker-private until
  // the batch is resolved: one ring push per peer and one counter add
  // per counter per batch, instead of one of each per job.
  std::array<Route, kWorkerBatch> fills;
  std::size_t fill_count = 0;
  std::uint64_t home_lookups = 0;
  std::uint64_t dred_hits = 0;
  std::uint64_t miss_returns = 0;
  std::uint64_t sync_returns = 0;
  std::uint64_t moved_returns = 0;
  {
    // Pin discipline: pin the epoch once for the whole batch, then read
    // the image. Every block a concurrent patch unlinks stays alive until
    // this guard's slot passes its retire epoch; batches are tens of
    // jobs, so the pin never stretches a grace period meaningfully.
    EpochDomain::Guard guard(epoch_, w);
    // Fill stamps, loaded before any image load. The control role pushes
    // a sweep only after the patch it syncs, and publishes control_pushed
    // only after the push, so a route read before that patch carries a
    // stamp below the sweep: the peer either caches it before the sweep
    // lands, which then erases or fixes it, or has applied the sweep and
    // drops the fill (drain_fills).
    if (dred_enabled_) {
      for (std::size_t peer = 0; peer < workers_.size(); ++peer) {
        if (!engine::dred_may_cache(peer, w)) continue;
        me.fill_stamps[peer] = static_cast<std::uint32_t>(
            workers_[peer]->control_pushed.value.load(
                std::memory_order_acquire));
      }
    }
    // This thread is control_applied's only writer.
    const auto applied = static_cast<std::uint32_t>(
        me.control_applied.load(std::memory_order_relaxed));
    const engine::FlatLookupTable& flat = chips_.chip(w);
    const auto resolve = [&](const Job& job) -> Completion {
      if (job.dred_only) {
        // Sync stamp (§III-B's miss-return, reused): the job was
        // dispatched after a DRed sweep this worker has not applied yet,
        // so its DRed may still hold an erased or rewritten shape. Home
        // answers instead; its image was patched before the sweep was
        // pushed. The uint32 difference is wrap-safe.
        if (static_cast<std::int32_t>(job.sync_stamp - applied) > 0) {
          ++sync_returns;
          ++miss_returns;
          return Completion{job.index, netbase::kNoRoute, true};
        }
        if (const auto hop = me.dred->lookup(job.address)) {
          ++dred_hits;
          return Completion{job.index, *hop, false};
        }
        // Miss: the client re-enqueues at the home chip (the runtime's
        // version of the engine's beyond-FIFO-bound return acceptance).
        ++miss_returns;
        return Completion{job.index, netbase::kNoRoute, true};
      }
      ++home_lookups;
      const NextHop hop = flat.lookup(job.address);
      if (hop == netbase::kNoRoute) {
        // Routing stamp (the same miss-return): a job homed here by a
        // routing generation older than this chip's last shrink may ask
        // for an address the shrink moved to a neighbour. moved_gen is
        // stored before the shrink's release stores and loaded after the
        // image's acquire loads, so an image read that saw the shrink
        // sees it too; an older read answered from the unshrunk image.
        // Sent home, the job is routed again by the current generation.
        const bool moved =
            static_cast<std::int32_t>(
                me.moved_gen.load(std::memory_order_relaxed) -
                job.sync_stamp) > 0;
        moved_returns += moved;
        miss_returns += moved;
        return Completion{job.index, hop, moved};
      }
      // One in every 8 hits offers the stored route to the peer DReds;
      // the flat image carries its exact shape, so the sampled hit costs
      // one more cached image read.
      if (dred_enabled_ && (me.hits_seen++ & kFillSampleMask) == 0) {
        if (const auto matched = flat.lookup_route(job.address)) {
          fills[fill_count++] = *matched;
        }
      }
      return Completion{job.index, hop, false};
    };
    // Request every job's level-1 line before resolving any: the flat
    // array is tens of MB and cache-cold per batch, so the loads overlap
    // instead of serialising one miss per job.
    for (std::size_t i = 0; i < n; ++i) {
      if (!jobs[i].dred_only) flat.prefetch(jobs[i].address);
    }
    for (std::size_t i = 0; i < n; ++i) {
      // Service-time sampling: time one in every 64 jobs so the histogram
      // costs two clock reads per sample, not per lookup. jobs_seen is
      // worker-private, so the per-job cost is a plain increment + mask
      // rather than an atomic load.
      if ((me.jobs_seen++ & kLatencySampleMask) == 0) {
        const auto t0 = Clock::now();
        done[i] = resolve(jobs[i]);
        me.service_hist.record(elapsed_ns(t0));
      } else {
        done[i] = resolve(jobs[i]);
      }
    }
  }
  // Zero counts skip their atomic add.
  const auto count = [&me](WorkerCounter counter, std::uint64_t events) {
    if (events > 0) me.counters.add(counter, events);
  };
  count(WorkerCounter::kJobs, n);
  count(WorkerCounter::kHomeLookups, home_lookups);
  count(WorkerCounter::kDredLookups, n - home_lookups);
  count(WorkerCounter::kDredHits, dred_hits);
  count(WorkerCounter::kMissReturns, miss_returns);
  count(WorkerCounter::kDredSyncReturns, sync_returns);
  count(WorkerCounter::kMovedReturns, moved_returns);
  // Fills leave before the completions, so once a batch is answered every
  // fill it produced is already in a peer's ring.
  send_fills(w, {fills.data(), fill_count});
  // Completions exist only for the client's in-flight batch, which
  // drains them on every pass, so this wait is bounded; stop() ends it.
  std::size_t pushed = 0;
  wait_until([&] {
    pushed += me.completions->try_push_n(done.data() + pushed, n - pushed);
    return pushed == n;
  });
  return n;
}

bool LookupRuntime::drain_control(std::size_t w) {
  Worker& me = *workers_[w];
  engine::DredSync sync;
  bool any = false;
  // The test hook is read once a message is seen, so a message pushed
  // after a stall is never taken. Syncs are pushed only when DRed is
  // enabled, so a worker that pops one has a DRed.
  while (!me.control->empty_approx() && !stalled(me, kStallControl) &&
         me.control->try_pop(sync)) {
    any = true;
    me.dred->apply(sync);
    me.control_applied.fetch_add(1, std::memory_order_release);
  }
  return any;
}

bool LookupRuntime::drain_fills(std::size_t w) {
  Worker& me = *workers_[w];
  std::array<FillMsg, kWorkerBatch> msgs;
  // This thread is control_applied's only writer.
  const auto synced = static_cast<std::uint32_t>(
      me.control_applied.load(std::memory_order_relaxed));
  std::uint64_t applied = 0;
  std::uint64_t stale = 0;
  std::uint64_t declined = 0;
  for (std::size_t peer = 0; peer < workers_.size(); ++peer) {
    if (peer == w) continue;
    std::size_t n;
    while ((n = me.fills[peer]->try_pop_n(msgs.data(), msgs.size())) > 0) {
      // Staleness guard, the diverted job's stamp rule: once this worker
      // has applied a control message the fill's stamp does not cover, a
      // sync may have erased or rewritten the route since it was read
      // (an update, or a migration that made it this chip's own) — drop
      // rather than poison the cache (a fresh hit will re-fill). The
      // uint32 difference is wrap-safe. A current fill is an offer: an
      // uncached route enters on its second one, so a route hit once does
      // not cost this worker an eviction.
      for (std::size_t i = 0; i < n; ++i) {
        if (static_cast<std::int32_t>(synced - msgs[i].stamp) > 0) {
          ++stale;
        } else if (me.dred->offer(msgs[i].route)) {
          ++applied;
        } else {
          ++declined;
        }
      }
    }
  }
  if (applied > 0) me.counters.add(WorkerCounter::kFillsApplied, applied);
  if (stale > 0) me.counters.add(WorkerCounter::kFillsDroppedStale, stale);
  if (declined > 0) me.counters.add(WorkerCounter::kFillsDeclined, declined);
  return applied + stale + declined > 0;
}

void LookupRuntime::send_fills(std::size_t w, std::span<const Route> routes) {
  const std::size_t count = routes.size();
  if (count == 0) return;
  Worker& me = *workers_[w];
  std::array<FillMsg, kWorkerBatch> fills;
  std::uint64_t sent = 0;
  std::uint64_t dropped = 0;  // best effort: a full ring's share is lost
  for (std::size_t peer = 0; peer < workers_.size(); ++peer) {
    if (!engine::dred_may_cache(peer, w)) continue;  // exclusion rule
    for (std::size_t i = 0; i < count; ++i) {
      fills[i] = FillMsg{routes[i], me.fill_stamps[peer]};
    }
    const std::size_t pushed =
        workers_[peer]->fills[w]->try_push_n(fills.data(), count);
    if (pushed > 0) workers_[peer]->bell.ring();
    sent += pushed;
    dropped += count - pushed;
  }
  if (sent > 0) me.counters.add(WorkerCounter::kFillsSent, sent);
  if (dropped > 0) me.counters.add(WorkerCounter::kFillsDroppedFull, dropped);
}

// ----------------------------------------------------------------- client

std::size_t LookupRuntime::push_jobs(std::size_t w, Job* jobs,
                                     std::size_t count) {
  const std::size_t pushed = workers_[w]->jobs->try_push_n(jobs, count);
  if (pushed > 0) workers_[w]->bell.ring();
  return pushed;
}

bool LookupRuntime::try_submit(const Routing& routing, Job job) {
  const std::size_t home = routing.logic.tcam_of(job.address);
  job.sync_stamp = routing.generation;
  return push_jobs(home, &job, 1) == 1 || try_divert(home, job);
}

bool LookupRuntime::try_divert(std::size_t home, Job job) {
  if (!dred_enabled_) return false;  // nowhere useful to divert
  occupancy_scratch_.resize(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    occupancy_scratch_[i] = workers_[i]->jobs->size_approx();
  }
  const auto decision =
      engine::choose_queue(home, occupancy_scratch_, config_.fifo_depth);
  switch (decision.action) {
    case engine::DispatchDecision::Action::kHome:
      // The home ring drained between our push and the scan; retry it.
      return push_jobs(home, &job, 1) == 1;
    case engine::DispatchDecision::Action::kDivert:
      job.dred_only = true;
      // Every sweep pushed before this load is one the job must not
      // outrun (see serve_jobs).
      job.sync_stamp = static_cast<std::uint32_t>(
          workers_[decision.chip]->control_pushed.value.load(
              std::memory_order_acquire));
      if (push_jobs(decision.chip, &job, 1) == 1) {
        client_counters_.add(ClientCounter::kDiverted);
        return true;
      }
      return false;
    case engine::DispatchDecision::Action::kReject:
      return false;
  }
  return false;
}

std::vector<NextHop> LookupRuntime::lookup_batch(
    std::span<const Ipv4Address> addresses,
    std::vector<double>* latency_ns) {
  std::vector<NextHop> results(addresses.size(), netbase::kNoRoute);
  if (latency_ns) latency_ns->assign(addresses.size(), 0.0);
  // Only stop() ends a batch early, and it may leave completions in the
  // rings. A stop is permanent, so every later batch returns here without
  // draining them: each completion a batch drains is its own.
  if (stop_.load(std::memory_order_acquire)) {
    client_counters_.add(ClientCounter::kBatchesAborted);
    return results;
  }
  if (latency_ns) submitted_.resize(addresses.size());
  std::size_t next = 0;
  std::size_t outstanding = 0;
  std::size_t answered = 0;
  Backoff backoff;
  std::uint64_t idle = 0;
  // No-progress episodes longer than this many polls count as a stall in
  // the metrics (workers wedged, descheduled, or the runtime stopping).
  constexpr std::uint64_t kStallSpins = 10'000;
  while (next < addresses.size() || outstanding > 0 || !backlog_.empty()) {
    bool progress = false;
    {
      // Dispatch pass: pin the epoch so the routing snapshot we route by
      // cannot be freed under us by a concurrent rebalance. Re-read every
      // pass, and stamp every home job with its generation: a job routed
      // by a snapshot a migration has since replaced comes back from the
      // shrunk donor (serve_jobs) and is routed again here.
      EpochDomain::Guard guard(epoch_, client_slot_);
      const Routing& routing = *routing_.load(std::memory_order_seq_cst);
      // Returned misses first: they are the oldest jobs in flight. Each
      // is re-stamped, or a moved job would bounce forever.
      for (std::size_t i = 0; i < returns_.size();) {
        const std::size_t home = routing.logic.tcam_of(returns_[i].address);
        returns_[i].sync_stamp = routing.generation;
        if (push_jobs(home, &returns_[i], 1) == 1) {
          returns_[i] = returns_.back();
          returns_.pop_back();
          progress = true;
        } else {
          ++i;
        }
      }
      // Then jobs every ring rejected last pass (older than fresh ones).
      for (std::size_t i = 0; i < backlog_.size();) {
        if (try_submit(routing, backlog_[i])) {
          if (latency_ns) submitted_[backlog_[i].index] = Clock::now();
          ++outstanding;
          backlog_[i] = backlog_.back();
          backlog_.pop_back();
          progress = true;
        } else {
          ++i;
        }
      }
      // Fresh submissions, staged per home chip so each ring takes one
      // batched push per pass instead of one cursor update per address.
      // Staging pauses while a backlog exists — everything is full
      // anyway, and order stays tidy.
      if (backlog_.empty() && next < addresses.size()) {
        const std::size_t stage_end =
            std::min(addresses.size(), next + kClientStage);
        for (; next < stage_end; ++next) {
          const std::size_t home = routing.logic.tcam_of(addresses[next]);
          stage_[home].push_back(Job{addresses[next],
                                     static_cast<std::uint32_t>(next), false,
                                     routing.generation});
        }
        for (std::size_t w = 0; w < workers_.size(); ++w) {
          auto& staged = stage_[w];
          if (staged.empty()) continue;
          const std::size_t pushed =
              push_jobs(w, staged.data(), staged.size());
          if (pushed > 0) {
            progress = true;
            if (latency_ns) {
              // One stamp per sub-batch: the spread within a batched
              // push is nanoseconds against microsecond latencies.
              const auto stamp = Clock::now();
              for (std::size_t i = 0; i < pushed; ++i) {
                submitted_[staged[i].index] = stamp;
              }
            }
            outstanding += pushed;
          }
          for (std::size_t i = pushed; i < staged.size(); ++i) {
            if (try_divert(w, staged[i])) {
              if (latency_ns) submitted_[staged[i].index] = Clock::now();
              ++outstanding;
              progress = true;
            } else {
              backlog_.push_back(staged[i]);
            }
          }
          staged.clear();
        }
        if (!backlog_.empty()) {
          client_counters_.add(ClientCounter::kBackpressureWaits);
        }
      }
    }
    // Completion drain + reorder stage: results land at their
    // submission index regardless of which chip answered when.
    for (auto& worker : workers_) {
      std::size_t got;
      while ((got = worker->completions->try_pop_n(drain_scratch_.data(),
                                                   kDrainBatch)) > 0) {
        progress = true;
        for (std::size_t d = 0; d < got; ++d) {
          const Completion& done = drain_scratch_[d];
          if (done.miss_return) {
            returns_.push_back(Job{addresses[done.index], done.index, false});
          } else {
            results[done.index] = done.hop;
            if (latency_ns) {
              const double ns = elapsed_ns(submitted_[done.index]);
              (*latency_ns)[done.index] = ns;
              // Same 1-in-N sampling as worker service timing: on a
              // loaded host the client shares cycles with the workers,
              // so per-completion recording taxes lookup throughput.
              if ((client_samples_seen_++ & kLatencySampleMask) == 0) {
                client_hist_.record(ns);
              }
            }
            --outstanding;
            ++answered;
          }
        }
      }
    }
    if (progress) {
      backoff.reset();
      idle = 0;
      continue;
    }
    // Bounded spin: a stopping runtime (workers joined, rings wedged)
    // must unblock the client instead of yielding forever. Unanswered
    // addresses keep their kNoRoute default.
    if (stop_.load(std::memory_order_acquire)) {
      client_counters_.add(ClientCounter::kBatchesAborted);
      break;
    }
    if (++idle == kStallSpins) client_counters_.add(ClientCounter::kStalls);
    backoff.pause();
  }
  // Only answered addresses count: a stopped batch's kNoRoute tail is
  // not a completed lookup.
  client_counters_.add(ClientCounter::kLookupsCompleted, answered);
  return results;
}

NextHop LookupRuntime::lookup(Ipv4Address address) {
  const Ipv4Address one[1] = {address};
  return lookup_batch(std::span<const Ipv4Address>(one, 1)).front();
}

// ---------------------------------------------------------------- control

std::size_t LookupRuntime::publish(std::span<update::StagedPatch> staged,
                                   obs::TtfTraceEntry* trace) {
  bool retired = false;
  for (update::StagedPatch& patch : staged) {
    engine::FlatLookupTable::Retired unlinked = chips_.apply(patch);
    Worker& worker = *workers_[patch.chip];
    const engine::FlatLookupTable& flat = chips_.chip(patch.chip);
    flat_rebuild_hist_.record(patch.ns);
    if (trace) trace->flat_ns += patch.ns;
    worker.occupancy.store(flat.route_count(), std::memory_order_release);
    worker.flat_bytes.store(flat.memory_bytes(), std::memory_order_relaxed);
    tables_published_.fetch_add(1, std::memory_order_relaxed);
    if (unlinked.empty()) {
      patches_unretired_.fetch_add(1, std::memory_order_relaxed);
    } else {
      retired = true;
      flat_blocks_retired_.fetch_add(unlinked.blocks(),
                                     std::memory_order_relaxed);
      epoch_.retire(new engine::FlatLookupTable::Retired(std::move(unlinked)));
    }
  }
  // One grace barrier closes the whole publish, and only when a patch
  // unlinked something: after it every worker has left the unlinked
  // blocks, so the caller's reclaim parks them all. A publish of pure
  // slot stores has nothing to wait for.
  if (retired) {
    const auto tg = Clock::now();
    epoch_.synchronize();
    grace_waits_.fetch_add(1, std::memory_order_relaxed);
    if (trace) trace->grace_ns += elapsed_ns(tg);
  }
  return staged.size();
}

std::uint32_t LookupRuntime::publish_indexing() {
  // Single writer (the control role): the relaxed load is the last store.
  const std::uint32_t generation =
      routing_.load(std::memory_order_relaxed)->generation + 1;
  Routing* old = routing_.exchange(
      new Routing{engine::IndexingLogic(chips_.boundaries()), generation},
      std::memory_order_seq_cst);
  // The old snapshot is freed by a later reclaim once no dispatch pass
  // still pins it. It shares the epoch domain's reclaim accounting with
  // chip tables, so it must count as a published version too or the
  // reclaimed == published quiescence invariant breaks.
  epoch_.retire(old);
  tables_published_.fetch_add(1, std::memory_order_relaxed);
  return generation;
}

void LookupRuntime::push_control_n(std::size_t chip,
                                   std::span<const engine::DredSync> sweep) {
  const std::size_t count = sweep.size();
  if (count == 0) return;
  Worker& worker = *workers_[chip];
  std::size_t pushed = 0;
  wait_until([&] {
    pushed += worker.control->try_push_n(sweep.data() + pushed, count - pushed);
    // Only a full ring wakes its worker: nothing waits on a DRed sweep,
    // and whatever wakes the worker next (a job, a fill, stop()) finds
    // it drains control first. So a commit never pays a
    // parked worker's wake-up.
    if (pushed < count) worker.bell.ring();
    return pushed == count;
  });
  // Only what actually landed counts (a stopping runtime bails
  // mid-push). Single writer: the control role.
  auto& total = worker.control_pushed.value;
  total.store(total.load(std::memory_order_relaxed) + pushed,
              std::memory_order_release);
}

std::vector<std::size_t> LookupRuntime::chip_occupancy() const {
  std::vector<std::size_t> occupancy(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    occupancy[i] = workers_[i]->occupancy.load(std::memory_order_acquire);
  }
  return occupancy;
}

double LookupRuntime::skew() const {
  return update::occupancy_skew(chip_occupancy());
}

std::size_t LookupRuntime::migrate(const update::MigrationStep& step) {
  // 0. Stage both sides — the receiver's gain and the donor's loss — before
  //    either is published: from step 1 on, nothing here stages, so
  //    nothing can throw with the migration half done.
  update::StagedMigration staged = chips_.stage_migration(step);
  const std::vector<Route>& migrated = staged.run.routes;
  if (migrated.empty()) return 0;

  // 1. Patch the receiver's image with the migrated routes added. Both
  //    chips now store them, but the indexing still homes their
  //    addresses to the donor, whose image is untouched — every lookup
  //    answer is unchanged.
  publish({&staged.gain, 1});

  // 2. Move the shared boundary and publish it as the next routing
  //    generation: from the client's next dispatch pass on, migrated
  //    addresses go to the receiver (whose table already answers them).
  //    Jobs already routed by an older generation may still reach the
  //    donor.
  chips_.move_boundary(staged.run);
  const std::uint32_t generation = publish_indexing();

  // 3. Shrink the donor, storing the generation as its moved_gen first.
  //    A job routed before it that reads the donor's image before the
  //    shrink gets the unshrunk answer; one that reads it after gets
  //    kNoRoute for a migrated address, sees the stamp is older, and goes
  //    home to be routed to the receiver (serve_jobs).
  workers_[step.donor]->moved_gen.store(generation, std::memory_order_release);
  publish({&staged.loss, 1});

  // 4. Push the receiver's planned DRed sweep: the migrated prefixes are
  //    now its *own*, so its DRed must drop them (DRed i never caches
  //    chip i's prefixes). Like a commit's sweep it is pushed, not
  //    awaited: a job diverted to the receiver from here on is stamped
  //    past it and goes home until it is applied, and stop() applies it
  //    if it is still queued. A fill the donor read before step 3 is
  //    stamped below it, so the receiver either caches it before the
  //    sweep, which erases it, or drops it.
  if (dred_enabled_) push_control_n(step.receiver, staged.sweep);
  // Parks what the shrink unlinked (after publish's grace barrier) and
  // frees the old routing snapshot once no dispatch pass pins it.
  epoch_.reclaim();
  return migrated.size();
}

std::size_t LookupRuntime::rebalance_pass(obs::TtfTraceEntry* trace) {
  const auto t0 = Clock::now();
  const update::RebalancePass pass = update::run_rebalance_pass(
      chips_, [this](const update::MigrationStep& step) -> std::size_t {
        return stop_.load(std::memory_order_acquire) ? 0 : migrate(step);
      });
  entries_migrated_.fetch_add(pass.entries, std::memory_order_relaxed);
  rebalance_steps_.fetch_add(pass.steps, std::memory_order_relaxed);
  const double ns = elapsed_ns(t0);
  if (trace) {
    trace->rebalance_steps += static_cast<std::uint32_t>(pass.steps);
    trace->entries_migrated += static_cast<std::uint32_t>(pass.entries);
    trace->rebalance_ns += ns;
  }
  if (pass.steps > 0) {
    rebalance_passes_.fetch_add(1, std::memory_order_relaxed);
    rebalance_hist_.record(ns);
  }
  return pass.steps;
}

std::size_t LookupRuntime::rebalance_now() { return rebalance_pass(); }

// ----------------------------------------------------------- async ingress

bool LookupRuntime::submit(const workload::UpdateMsg& message) {
  if (!update_ring_ ||
      !wait_until([&] { return update_ring_->try_push(message); })) {
    return false;
  }
  updates_submitted_.fetch_add(1, std::memory_order_release);
  update_bell_.ring();
  return true;
}

void LookupRuntime::flush_updates() {
  if (!update_ring_) return;
  wait_until([this] {
    return updates_ingested_.load(std::memory_order_acquire) >=
           updates_submitted_.load(std::memory_order_acquire);
  });
}

void LookupRuntime::updater_main() {
  std::vector<workload::UpdateMsg> batch(kUpdateBatchMax);
  double window_us = 1.0;
  Backoff backoff;
  for (;;) {
    std::size_t n = update_ring_->try_pop_n(batch.data(), batch.size());
    if (n == 0) {
      // Empty ring at stop time = fully drained; exit. (A non-empty ring
      // keeps applying below even while stopping, so submitted work is
      // never silently dropped.)
      if (stop_.load(std::memory_order_acquire)) break;
      idle_step(backoff, update_bell_, [this] {
        return stop_.load(std::memory_order_acquire) ||
               !update_ring_->empty_approx();
      });
      continue;
    }
    backoff.reset();
    // Adaptive batch window: a partial pop waits up to window_us for the
    // burst's stragglers so one commit covers them all.
    const bool waited = n < batch.size();
    if (waited) {
      const auto deadline =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::micro>(
                                 window_us));
      wait_until([&] {
        n += update_ring_->try_pop_n(batch.data() + n, batch.size() - n);
        return n == batch.size() || Clock::now() >= deadline;
      });
    }
    apply_batch(std::span<const workload::UpdateMsg>(batch.data(), n));
    updates_ingested_.fetch_add(n, std::memory_order_release);
    // Adapt: a batch that filled without waiting means the arrival rate
    // saturates the commit rate — shrink the window and commit sooner. A
    // mostly-empty batch means the window is what is holding updates
    // back — widen it (bounded) so the next burst amortises better.
    if (!waited) {
      window_us = std::max(1.0, window_us * 0.5);
    } else if (n < batch.size() / 4) {
      window_us = std::min(kUpdateWindowUs, window_us * 2.0);
    }
  }
}

update::TtfSample LookupRuntime::apply(const workload::UpdateMsg& message) {
  // Exactly a group commit of one: same admission, same publish path,
  // same trace — plus the historical throwing contract on rejection.
  const update::BatchTtfSample batch = apply_batch({&message, 1});
  if (batch.rejected > 0) {
    throw tcam::TcamFullError("LookupRuntime::apply", chips_.capacity());
  }
  return batch.ttf;
}

update::BatchTtfSample LookupRuntime::apply_batch(
    std::span<const workload::UpdateMsg> messages) {
  if (messages.empty()) return {};
  const auto t0 = Clock::now();

  // --- TTF1: every message's ONRTC diff, in submission order. --------
  update::BatchTxn txn(fib_, messages);

  obs::TtfTraceEntry trace;
  trace.ttf1_ns = txn.sample().ttf.ttf1_ns;
  trace.batch_size = static_cast<std::uint32_t>(messages.size());
  // Queue-depth sample: how hard the data plane was running when this
  // commit cut in (correlates TTF tails with lookup pressure).
  std::size_t depth_sum = 0;
  for (const auto& worker : workers_) {
    const std::size_t depth = worker->jobs->size_approx();
    depth_sum += depth;
    trace.queue_depth_max =
        std::max(trace.queue_depth_max, static_cast<std::uint32_t>(depth));
  }
  trace.queue_depth_mean = static_cast<double>(depth_sum) /
                           static_cast<double>(workers_.size());

  // --- TTF2: coalesce, admit, patch each chip once. ----------------
  const auto t1 = Clock::now();
  // Admission reads the chip images.
  const update::CommitPlan& plan = txn.admit(chips_, [&] {
    return config_.rebalance ? rebalance_pass(&trace) : 0;
  });
  trace.admit_ns = elapsed_ns(t1);
  trie_bytes_.store(fib_.memory_bytes(), std::memory_order_relaxed);
  trie_growths_.store(fib_.trie_growths(), std::memory_order_relaxed);
  update::BatchTtfSample batch = txn.sample();
  updates_rejected_.fetch_add(batch.rejected, std::memory_order_seq_cst);
  trace.ops_raw = static_cast<std::uint32_t>(batch.raw_ops);
  trace.ops_merged = static_cast<std::uint32_t>(batch.merged_ops);

  // Messages the data plane can observe: kept ones with a non-empty
  // diff. No-op messages never bump the oracle counters.
  const std::size_t effective = txn.effective();
  if (effective == 0) {
    batch.ttf.ttf2_ns = elapsed_ns(t1);
    return batch;
  }

  // Admission passed: from here the batch publishes. Any lookup answer
  // ever produced stays within the [updates_completed before submit,
  // updates_started after completion] oracle window — rejected messages
  // never bump either counter, migrations never change answers, and the
  // single patch per chip means no *intermediate* batch state is ever
  // observable: each address of each chip moves once, from its pre-batch
  // to its post-batch answer. (Atomicity is per address, not per chip:
  // a lookup batch may see some addresses moved and others not yet, all
  // within the window.)
  trace.seq = updates_started_.fetch_add(effective,
                                         std::memory_order_seq_cst) +
              effective;
  // One patch per chip however many messages touched it; the grace
  // barrier, when one is needed, closes the whole batch, so the reclaim
  // below parks everything the batch unlinked.
  trace.chips_touched = static_cast<std::uint32_t>(
      publish(chips_.stage(plan.chips), &trace));
  batch.ttf.ttf2_ns = elapsed_ns(t1);

  // --- TTF3: each worker's planned DRed sweep, one push, no ack. -----
  // Nothing waits for a worker to drain its sweep: a job diverted to it
  // from here on carries a stamp past the sweep and goes home until it
  // has (serve_jobs), and home was patched above.
  const auto t2 = Clock::now();
  if (dred_enabled_) {
    std::size_t sent = 0;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      push_control_n(i, plan.sweeps[i]);
      sent += plan.sweeps[i].size();
    }
    trace.control_msgs = static_cast<std::uint32_t>(sent);
  }
  batch.ttf.ttf3_ns = elapsed_ns(t2);

  updates_completed_.fetch_add(effective, std::memory_order_seq_cst);
  epoch_.reclaim();

  batches_applied_.fetch_add(1, std::memory_order_relaxed);
  batch_ops_raw_.fetch_add(batch.raw_ops, std::memory_order_relaxed);
  batch_ops_merged_.fetch_add(batch.merged_ops, std::memory_order_relaxed);
  batch_publishes_.fetch_add(trace.chips_touched, std::memory_order_relaxed);

  // Drift watch (the rebalancer's steady-state trigger): occupancy just
  // changed, so re-check the watermarks and even out while the skew is
  // still small — many cheap migrations beat one giant one.
  if (config_.rebalance &&
      update::should_rebalance(chips_.occupancy(), chips_.capacity())) {
    rebalance_pass(&trace);
  }

  trace.ttf2_ns = batch.ttf.ttf2_ns;
  trace.ttf3_ns = batch.ttf.ttf3_ns;
  ttf_ring_.record(trace);
  batch_apply_hist_.record(elapsed_ns(t0));
  return batch;
}

// ---------------------------------------------------------------- metrics

RuntimeMetrics LookupRuntime::metrics() const {
  RuntimeMetrics m;
  m.per_worker_jobs.reserve(workers_.size());
  for (const auto& worker : workers_) {
    const auto& c = worker->counters;
    m.per_worker_jobs.push_back(c.get(WorkerCounter::kJobs));
    m.home_lookups += c.get(WorkerCounter::kHomeLookups);
    m.flat_bytes += worker->flat_bytes.load(std::memory_order_relaxed);
    m.dred_lookups += c.get(WorkerCounter::kDredLookups);
    m.dred_hits += c.get(WorkerCounter::kDredHits);
    m.miss_returns += c.get(WorkerCounter::kMissReturns);
    m.dred_sync_returns += c.get(WorkerCounter::kDredSyncReturns);
    m.moved_returns += c.get(WorkerCounter::kMovedReturns);
    m.fills_sent += c.get(WorkerCounter::kFillsSent);
    m.fills_applied += c.get(WorkerCounter::kFillsApplied);
    m.fills_dropped_full += c.get(WorkerCounter::kFillsDroppedFull);
    m.fills_dropped_stale += c.get(WorkerCounter::kFillsDroppedStale);
    m.fills_declined += c.get(WorkerCounter::kFillsDeclined);
  }
  for (std::size_t i = 0; i < chips_.size(); ++i) {
    const auto pool = chips_.chip(i).pool()->stats();
    m.flat_blocks_recycled += pool.recycled;
    m.flat_blocks_allocated += pool.allocated;
    m.flat_pool_bytes += pool.bytes;
  }
  m.lookups_completed = client_counters_.get(ClientCounter::kLookupsCompleted);
  m.diverted = client_counters_.get(ClientCounter::kDiverted);
  m.backpressure_waits =
      client_counters_.get(ClientCounter::kBackpressureWaits);
  m.client_stalls = client_counters_.get(ClientCounter::kStalls);
  m.batches_aborted = client_counters_.get(ClientCounter::kBatchesAborted);
  m.updates_applied = updates_completed_.load(std::memory_order_relaxed);
  m.updates_rejected = updates_rejected_.load(std::memory_order_relaxed);
  m.batches_applied = batches_applied_.load(std::memory_order_relaxed);
  m.batch_ops_raw = batch_ops_raw_.load(std::memory_order_relaxed);
  m.batch_ops_merged = batch_ops_merged_.load(std::memory_order_relaxed);
  m.batch_publishes = batch_publishes_.load(std::memory_order_relaxed);
  m.updates_submitted = updates_submitted_.load(std::memory_order_relaxed);
  m.updates_ingested = updates_ingested_.load(std::memory_order_relaxed);
  m.flat_blocks_retired = flat_blocks_retired_.load(std::memory_order_relaxed);
  m.grace_waits = grace_waits_.load(std::memory_order_relaxed);
  m.tables_published = tables_published_.load(std::memory_order_relaxed);
  m.tables_reclaimed = epoch_.reclaimed() +
                       patches_unretired_.load(std::memory_order_relaxed);
  m.tables_pending = epoch_.pending();
  m.rebalance_passes = rebalance_passes_.load(std::memory_order_relaxed);
  m.rebalance_steps = rebalance_steps_.load(std::memory_order_relaxed);
  m.entries_migrated = entries_migrated_.load(std::memory_order_relaxed);
  m.chip_occupancy = chip_occupancy();
  m.skew = update::occupancy_skew(m.chip_occupancy);
  return m;
}

obs::HistogramSnapshot LookupRuntime::worker_service_histogram(
    std::size_t worker) const {
  return workers_[worker]->service_hist.snapshot();
}

obs::HistogramSnapshot LookupRuntime::client_latency_histogram() const {
  return client_hist_.snapshot();
}

std::vector<obs::TtfTraceEntry> LookupRuntime::ttf_trace() const {
  return ttf_ring_.snapshot();
}

void LookupRuntime::export_metrics(obs::MetricsRegistry& registry) const {
  const RuntimeMetrics m = metrics();
  registry.set_counter("runtime.lookups_completed", m.lookups_completed);
  registry.set_counter("runtime.home_lookups", m.home_lookups);
  registry.set_gauge("runtime.flat_bytes",
                     static_cast<double>(m.flat_bytes));
  registry.set_counter("runtime.flat_blocks_recycled", m.flat_blocks_recycled);
  registry.set_counter("runtime.flat_blocks_allocated",
                       m.flat_blocks_allocated);
  registry.set_gauge("runtime.flat_pool_bytes",
                     static_cast<double>(m.flat_pool_bytes));
  registry.set_counter("runtime.flat_blocks_retired", m.flat_blocks_retired);
  registry.set_counter("runtime.grace_waits", m.grace_waits);
  registry.set_counter("runtime.dred_lookups", m.dred_lookups);
  registry.set_counter("runtime.dred_hits", m.dred_hits);
  registry.set_counter("runtime.miss_returns", m.miss_returns);
  registry.set_counter("runtime.dred_sync_returns", m.dred_sync_returns);
  registry.set_counter("runtime.moved_returns", m.moved_returns);
  registry.set_counter("runtime.diverted", m.diverted);
  registry.set_counter("runtime.backpressure_waits", m.backpressure_waits);
  registry.set_counter("runtime.client_stalls", m.client_stalls);
  registry.set_counter("runtime.batches_aborted", m.batches_aborted);
  registry.set_counter("runtime.fills_sent", m.fills_sent);
  registry.set_counter("runtime.fills_applied", m.fills_applied);
  registry.set_counter("runtime.fills_dropped_full", m.fills_dropped_full);
  registry.set_counter("runtime.fills_dropped_stale", m.fills_dropped_stale);
  registry.set_counter("runtime.fills_declined", m.fills_declined);
  registry.set_counter("runtime.updates_applied", m.updates_applied);
  registry.set_counter("runtime.updates_rejected", m.updates_rejected);
  registry.set_counter("runtime.batches_applied", m.batches_applied);
  registry.set_counter("runtime.batch_ops_raw", m.batch_ops_raw);
  registry.set_counter("runtime.batch_ops_merged", m.batch_ops_merged);
  registry.set_counter("runtime.batch_publishes", m.batch_publishes);
  registry.set_counter("runtime.updates_submitted", m.updates_submitted);
  registry.set_counter("runtime.updates_ingested", m.updates_ingested);
  // Fraction of raw diff ops the group commits never paid for.
  registry.set_gauge("runtime.batch_coalesce_saving",
                     m.batch_ops_raw == 0
                         ? 0.0
                         : 1.0 - static_cast<double>(m.batch_ops_merged) /
                                     static_cast<double>(m.batch_ops_raw));
  registry.set_counter("runtime.tables_published", m.tables_published);
  registry.set_counter("runtime.tables_reclaimed", m.tables_reclaimed);
  registry.set_counter("runtime.tables_pending", m.tables_pending);
  registry.set_counter("runtime.rebalance_passes", m.rebalance_passes);
  registry.set_counter("runtime.rebalance_steps", m.rebalance_steps);
  registry.set_counter("runtime.entries_migrated", m.entries_migrated);
  registry.set_counter("runtime.chip_capacity", chips_.capacity());
  registry.set_gauge("runtime.dred_hit_rate", m.dred_hit_rate());
  registry.set_gauge("runtime.skew", m.skew);
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const std::string prefix = "runtime.worker" + std::to_string(i);
    registry.set_counter(prefix + ".jobs", m.per_worker_jobs[i]);
    registry.set_counter(prefix + ".occupancy", m.chip_occupancy[i]);
    registry.add_histogram(prefix + ".service_ns",
                           workers_[i]->service_hist.snapshot());
  }
  // Read off the workers' published occupancy: this may run beside the
  // control role, which alone reads the images' counts.
  registry.set_gauge(
      "runtime.headroom_remaining",
      update::headroom_remaining(m.chip_occupancy, chips_.capacity()));
  registry.add_histogram("runtime.client.latency_ns", client_hist_.snapshot());
  registry.add_histogram("runtime.batch_apply_ns",
                         batch_apply_hist_.snapshot());
  registry.add_histogram("runtime.rebalance_ns", rebalance_hist_.snapshot());
  registry.add_histogram("runtime.flat_rebuild_ns",
                         flat_rebuild_hist_.snapshot());
  registry.set_gauge("runtime.flat_build_ns", chips_.build_ns());
  registry.set_gauge("runtime.fib_build_ns", fib_build_ns_);
  registry.set_gauge(
      "onrtc.trie_bytes",
      static_cast<double>(trie_bytes_.load(std::memory_order_relaxed)));
  registry.set_counter("onrtc.trie_growths",
                       trie_growths_.load(std::memory_order_relaxed));
  registry.add_ttf_trace("runtime.ttf", ttf_ring_.snapshot());
}

}  // namespace clue::runtime
