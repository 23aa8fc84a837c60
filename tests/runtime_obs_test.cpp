// LookupRuntime observability and shutdown-safety tests:
//  - stop() unblocks a lookup_batch in flight on another thread (the
//    backpressure-spin regression), counted in batches_aborted;
//  - an idle runtime parks every thread instead of polling;
//  - after churn quiesces, no DRed holds a stale route (the mid-fill
//    publish race) and every store's structural invariants hold;
//  - export_metrics() carries counters, per-worker service histograms,
//    the client latency histogram, and the TTF trace;
//  - the flat-rebuild histogram holds commit rebuilds only: start-up
//    builds land in their own gauge.
#include "runtime/lookup_runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ctime>
#include <thread>
#include <vector>

#include "engine/dred.hpp"
#include "netbase/rng.hpp"
#include "obs/metrics_registry.hpp"
#include "workload/rib_gen.hpp"
#include "workload/update_gen.hpp"

#include "test_support.hpp"

namespace {

using clue::test_support::make_fib;
using clue::test_support::random_addresses;

using clue::netbase::Ipv4Address;
using clue::netbase::Pcg32;
using clue::runtime::LookupRuntime;
using clue::runtime::RuntimeConfig;

TEST(LookupRuntimeTest, StopUnblocksBatchInFlight) {
  const auto fib = make_fib(10'000, 7001);
  RuntimeConfig config;
  config.worker_count = 1;
  config.fifo_depth = 32;
  LookupRuntime runtime(fib, config);

  // A batch big enough that it is certainly still in flight when stop()
  // lands. Before the stop-aware spin bound, this join never returned:
  // the client spun on full rings whose consumer had exited.
  const auto addresses = random_addresses(2'000'000, 7002);
  std::vector<clue::netbase::NextHop> hops;
  std::thread client([&] { hops = runtime.lookup_batch(addresses); });

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  runtime.stop();
  client.join();

  // Every address got a slot; the unanswered tail is kNoRoute and is
  // not counted as completed.
  ASSERT_EQ(hops.size(), addresses.size());
  const auto metrics = runtime.metrics();
  EXPECT_GE(metrics.batches_aborted, 1u);
  EXPECT_LT(metrics.lookups_completed, addresses.size());

  // After stop(), further batches return immediately instead of hanging,
  // and answer nothing.
  const auto after = runtime.lookup_batch(random_addresses(64, 7003));
  EXPECT_EQ(after.size(), 64u);
  EXPECT_TRUE(runtime.stopped());
  EXPECT_EQ(runtime.metrics().lookups_completed, metrics.lookups_completed);
}

TEST(LookupRuntimeTest, StopIsIdempotentAndDestructorSafe) {
  const auto fib = make_fib(2'000, 7101);
  RuntimeConfig config;
  config.worker_count = 2;
  LookupRuntime runtime(fib, config);
  runtime.lookup_batch(random_addresses(1'000, 7102));
  runtime.stop();
  runtime.stop();  // second call is a no-op
  EXPECT_TRUE(runtime.stopped());
}

double process_cpu_seconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) +
         static_cast<double>(now.tv_nsec) * 1e-9;
}

// Workers and the updater park on their doorbells once idle: a settled
// runtime with every thread started (DRed on, async ingress on) uses at
// most 1% of one core.
TEST(LookupRuntimeTest, IdleRuntimeParks) {
  const auto fib = make_fib(10'000, 7151);
  RuntimeConfig config;
  config.worker_count = 4;
  config.update_ring_depth = 64;
  LookupRuntime runtime(fib, config);
  runtime.lookup_batch(random_addresses(4'096, 7152));
  ASSERT_TRUE(runtime.submit(clue::test_support::announce("10.1.0.0/16", 7)));
  runtime.flush_updates();

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const double before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double used = process_cpu_seconds() - before;
  EXPECT_LE(used, 0.01) << "idle runtime used " << used << " core-s in 1 s";
}

TEST(LookupRuntimeTest, NoStaleDredRouteAfterChurnQuiesces) {
  const auto fib = make_fib(20'000, 7201);
  RuntimeConfig config;
  config.worker_count = 4;
  config.fifo_depth = 16;      // force diversions -> DRed traffic
  config.dred_capacity = 256;  // force evictions too
  LookupRuntime runtime(fib, config);

  // Churn thread: a steady update stream racing the lookups below, so
  // fills produced against version v regularly arrive after the home
  // chip published v+1.
  std::atomic<bool> done{false};
  std::thread control([&] {
    clue::workload::UpdateConfig update_config;
    update_config.seed = 7202;
    clue::workload::UpdateGenerator updates(fib, update_config);
    for (int i = 0; i < 4'000; ++i) runtime.apply(updates.next());
    done.store(true, std::memory_order_release);
  });

  Pcg32 rng(7203);
  while (!done.load(std::memory_order_acquire)) {
    std::vector<Ipv4Address> batch;
    for (int i = 0; i < 4096; ++i) batch.emplace_back(rng.next());
    runtime.lookup_batch(batch);
  }
  control.join();

  // Quiesced: updates are fully applied (a diverted job never outruns a
  // DRed sync pushed before it). One more sweep must agree exactly with
  // the final control plane.
  const auto& truth = runtime.fib().ground_truth();
  const auto sweep = random_addresses(20'000, 7204);
  const auto hops = runtime.lookup_batch(sweep);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    ASSERT_EQ(hops[i], truth.lookup(sweep[i]))
        << "address " << sweep[i].to_string();
  }

  const auto metrics = runtime.metrics();
  EXPECT_GT(metrics.diverted, 0u) << "test never exercised the DRed path";
  EXPECT_GT(metrics.fills_sent, 0u);

  // Workers joined: their DReds are now safe to inspect directly. Every
  // cached route must carry the *current* next hop — a stale fill that
  // slipped past the version check would sit here with an old hop.
  runtime.stop();
  for (std::size_t w = 0; w < runtime.worker_count(); ++w) {
    // dred() is const; lookup() bumps LRU/stats, harmless post-stop.
    auto* dred = const_cast<clue::engine::DredStore*>(runtime.dred(w));
    ASSERT_NE(dred, nullptr);
    EXPECT_TRUE(dred->invariants_ok());
    for (const auto& prefix : dred->contents()) {
      const auto cached = dred->lookup(prefix.range_low());
      ASSERT_TRUE(cached.has_value());
      EXPECT_EQ(*cached, truth.lookup(prefix.range_low()))
          << "stale DRed route for " << prefix.to_string() << " on worker "
          << w;
    }
  }
}

TEST(LookupRuntimeTest, ExportMetricsCarriesAllSections) {
  const auto fib = make_fib(10'000, 7301);
  RuntimeConfig config;
  config.worker_count = 2;
  LookupRuntime runtime(fib, config);

  const auto addresses = random_addresses(8'192, 7302);
  std::vector<double> latency_ns;
  runtime.lookup_batch(addresses, &latency_ns);
  EXPECT_EQ(latency_ns.size(), addresses.size());

  // Apply until at least 20 updates took effect (no-op announcements
  // record no trace).
  clue::workload::UpdateConfig update_config;
  update_config.seed = 7303;
  clue::workload::UpdateGenerator updates(fib, update_config);
  for (int i = 0; i < 1'000 && runtime.updates_completed() < 20; ++i) {
    runtime.apply(updates.next());
  }
  ASSERT_GE(runtime.updates_completed(), 20u);

  clue::obs::MetricsRegistry registry;
  runtime.export_metrics(registry);

  const auto counter = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : registry.counters()) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  EXPECT_EQ(counter("runtime.lookups_completed"), addresses.size());
  EXPECT_EQ(counter("runtime.updates_applied"), runtime.updates_completed());
  EXPECT_EQ(counter("runtime.fills_declined"),
            runtime.metrics().fills_declined);
  EXPECT_EQ(counter("runtime.dred_sync_returns"),
            runtime.metrics().dred_sync_returns);
  EXPECT_LE(counter("runtime.dred_sync_returns"),
            counter("runtime.miss_returns"));
  EXPECT_EQ(counter("runtime.moved_returns"), runtime.metrics().moved_returns);
  EXPECT_LE(counter("runtime.moved_returns"), counter("runtime.miss_returns"));
  // The commit-latency histogram exports its tail beside the median.
  const std::string json = registry.to_json();
  const auto apply_at = json.find("\"runtime.batch_apply_ns\"");
  ASSERT_NE(apply_at, std::string::npos);
  EXPECT_NE(json.find("\"p999_ns\"", apply_at), std::string::npos);

  // The runtime samples one in every 64 events: each worker times the
  // first of every 64 jobs it runs (lookups and miss re-enqueues
  // alike), and the client records the first of every 64 completion
  // latencies.
  const auto samples = [](std::uint64_t events) { return (events + 63) / 64; };
  const auto per_worker_jobs = runtime.metrics().per_worker_jobs;
  std::size_t service_hists = 0;
  bool client_hist_seen = false;
  for (const auto& [name, snap] : registry.histograms()) {
    for (std::size_t w = 0; w < per_worker_jobs.size(); ++w) {
      if (name == "runtime.worker" + std::to_string(w) + ".service_ns") {
        ++service_hists;
        EXPECT_EQ(snap.total, samples(per_worker_jobs[w])) << name;
      }
    }
    if (name == "runtime.client.latency_ns") {
      client_hist_seen = true;
      EXPECT_EQ(snap.total, samples(addresses.size()));
      EXPECT_GT(snap.quantile_ns(0.5), 0.0);
    }
  }
  EXPECT_EQ(service_hists, per_worker_jobs.size());
  EXPECT_TRUE(client_hist_seen);

  // The TTF trace retains the most recent applies, oldest first, each
  // with non-negative stage spans; a commit that patched chips splits
  // TTF2 into admission, flat patch and grace sub-spans — the grace span
  // only when a patch unlinked blocks (a pure slot patch skips it).
  bool trace_seen = false;
  for (const auto& [name, entries] : registry.ttf_traces()) {
    if (name != "runtime.ttf") continue;
    trace_seen = true;
    ASSERT_FALSE(entries.empty());
    EXPECT_LE(entries.size(), 1024u);  // the retained trace depth
    EXPECT_EQ(entries.back().seq, runtime.updates_started());
    for (const auto& e : entries) {
      EXPECT_GE(e.ttf1_ns, 0.0);
      EXPECT_GE(e.ttf2_ns, 0.0);
      EXPECT_GE(e.ttf3_ns, 0.0);
      EXPECT_LE(e.chips_touched, runtime.worker_count());
      if (e.chips_touched > 0) {
        EXPECT_GT(e.admit_ns, 0.0);
        EXPECT_GT(e.flat_ns, 0.0);
        EXPECT_GE(e.grace_ns, 0.0);
        EXPECT_LE(e.admit_ns + e.flat_ns + e.grace_ns, e.ttf2_ns);
      }
    }
  }
  EXPECT_TRUE(trace_seen);

  // A second export overwrites in place instead of duplicating names.
  runtime.export_metrics(registry);
  EXPECT_EQ(counter("runtime.lookups_completed"), addresses.size());
}

TEST(LookupRuntimeTest, FlatRebuildHistogramCountsCommitRebuildsOnly) {
  const auto fib = make_fib(10'000, 7401);
  RuntimeConfig config;
  config.worker_count = 3;
  config.rebalance = false;  // no migration rebuilds
  LookupRuntime runtime(fib, config);

  clue::workload::UpdateConfig update_config;
  update_config.seed = 7402;
  clue::workload::UpdateGenerator updates(fib, update_config);
  for (int i = 0; i < 300; ++i) runtime.apply(updates.next());
  std::vector<clue::workload::UpdateMsg> burst;
  for (int i = 0; i < 64; ++i) burst.push_back(updates.next());
  runtime.apply_batch(burst);

  clue::obs::MetricsRegistry registry;
  runtime.export_metrics(registry);
  const std::uint64_t publishes = runtime.metrics().batch_publishes;
  ASSERT_GT(publishes, 0u);
  bool histogram_seen = false;
  for (const auto& [name, snap] : registry.histograms()) {
    if (name != "runtime.flat_rebuild_ns") continue;
    histogram_seen = true;
    // One rebuild per chip a commit republished, and nothing else.
    EXPECT_EQ(snap.total, publishes);
  }
  EXPECT_TRUE(histogram_seen);
  bool gauge_seen = false;
  for (const auto& [name, value] : registry.gauges()) {
    if (name != "runtime.flat_build_ns") continue;
    gauge_seen = true;
    EXPECT_GT(value, 0.0);
  }
  EXPECT_TRUE(gauge_seen);
}

TEST(LookupRuntimeTest, StartUpGaugesCoverTheControlTries) {
  const auto fib = make_fib(10'000, 7501);
  RuntimeConfig config;
  config.worker_count = 2;
  const clue::onrtc::CompressedFib compressed(fib);
  for (const bool from_trie : {true, false}) {
    const auto runtime = from_trie
                             ? std::make_unique<LookupRuntime>(fib, config)
                             : std::make_unique<LookupRuntime>(compressed,
                                                               config);
    EXPECT_EQ(runtime->fib().compressed().routes(),
              compressed.compressed().routes());

    clue::obs::MetricsRegistry registry;
    runtime->export_metrics(registry);
    double trie_bytes = -1;
    double fib_build_ns = -1;
    for (const auto& [name, value] : registry.gauges()) {
      if (name == "onrtc.trie_bytes") trie_bytes = value;
      if (name == "runtime.fib_build_ns") fib_build_ns = value;
    }
    EXPECT_EQ(trie_bytes,
              static_cast<double>(runtime->fib().memory_bytes()));
    EXPECT_GT(trie_bytes, 0.0);
    EXPECT_GT(fib_build_ns, 0.0);
  }
}

// A commit whose patches only rewrite slots retires nothing and skips
// the grace barrier; one that collapses a level-2 block retires it and
// waits once. runtime.flat_blocks_retired and runtime.grace_waits tell
// the two apart.
TEST(LookupRuntimeTest, PureSlotPatchesSkipTheGraceBarrier) {
  using clue::netbase::make_next_hop;
  using clue::netbase::Prefix;
  using clue::workload::UpdateKind;
  using clue::workload::UpdateMsg;
  const Prefix wide(Ipv4Address(0x0A000000u), 16);
  const Prefix half_lo(Ipv4Address(0x0A020000u), 25);
  const Prefix half_hi(Ipv4Address(0x0A020080u), 25);
  clue::trie::BinaryTrie fib;
  fib.insert(wide, make_next_hop(1));
  fib.insert(Prefix(Ipv4Address(0x0A010000u), 16), make_next_hop(2));
  fib.insert(half_lo, make_next_hop(4));
  fib.insert(half_hi, make_next_hop(5));
  RuntimeConfig config;
  config.worker_count = 2;
  config.rebalance = false;
  LookupRuntime runtime(fib, config);
  const auto counters = [&runtime] {
    clue::obs::MetricsRegistry registry;
    runtime.export_metrics(registry);
    std::pair<std::uint64_t, std::uint64_t> out{~0ull, ~0ull};
    for (const auto& [name, value] : registry.counters()) {
      if (name == "runtime.flat_blocks_retired") out.first = value;
      if (name == "runtime.grace_waits") out.second = value;
    }
    return out;
  };
  using Counts = std::pair<std::uint64_t, std::uint64_t>;
  ASSERT_EQ(counters(), (Counts{0, 0}));

  // Rewrite-only: the /16's slots change hop in place.
  runtime.apply(UpdateMsg{UpdateKind::kAnnounce, wide, make_next_hop(3)});
  EXPECT_EQ(runtime.lookup(Ipv4Address(0x0A000101u)), make_next_hop(3));
  EXPECT_EQ(counters(), (Counts{0, 0})) << "a rewrite-only commit";
  ASSERT_FALSE(runtime.ttf_trace().empty());
  EXPECT_EQ(runtime.ttf_trace().back().grace_ns, 0.0);

  // The /25s' hops meet: ONRTC merges them into one /24, so the level-2
  // block collapses and is retired behind one grace barrier.
  runtime.apply(UpdateMsg{UpdateKind::kAnnounce, half_hi, make_next_hop(4)});
  EXPECT_EQ(runtime.lookup(Ipv4Address(0x0A0200F0u)), make_next_hop(4));
  const Counts collapsed = counters();
  EXPECT_GT(collapsed.first, 0u) << "runtime.flat_blocks_retired";
  EXPECT_EQ(collapsed.second, 1u) << "runtime.grace_waits";
  EXPECT_GT(runtime.ttf_trace().back().grace_ns, 0.0);
  const auto m = runtime.metrics();
  EXPECT_EQ(m.tables_pending, 0u);
  EXPECT_EQ(m.tables_reclaimed, m.tables_published);
}

// Commits that outgrow the control tries' spare slots show up as counted
// arena growths, refreshed by each commit beside onrtc.trie_bytes.
TEST(LookupRuntimeTest, CommitsExportTheControlTriesArenaGrowths) {
  const auto fib = make_fib(2'000, 7503);
  RuntimeConfig config;
  config.worker_count = 2;
  LookupRuntime runtime(fib, config);
  const auto growths = [&runtime] {
    clue::obs::MetricsRegistry registry;
    runtime.export_metrics(registry);
    for (const auto& [name, value] : registry.counters()) {
      if (name == "onrtc.trie_growths") return static_cast<std::int64_t>(value);
    }
    return std::int64_t{-1};
  };
  EXPECT_EQ(growths(), 0);
  Pcg32 rng(7504);
  while (runtime.fib().trie_growths() == 0) {
    runtime.apply(clue::workload::UpdateMsg{
        clue::workload::UpdateKind::kAnnounce,
        clue::netbase::Prefix(Ipv4Address(rng.next()), 32),
        clue::netbase::make_next_hop(1 + rng.next_below(8))});
  }
  EXPECT_EQ(growths(), static_cast<std::int64_t>(runtime.fib().trie_growths()));
  EXPECT_GT(growths(), 0);
}

}  // namespace
