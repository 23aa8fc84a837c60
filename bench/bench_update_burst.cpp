// Group-commit burst replay: sustained update throughput of the batched
// TTF pipeline (LookupRuntime::apply_batch) vs the sequential apply()
// path, with lookup traffic running concurrently so the p99 lookup
// latency *during* the burst is part of the result.
//
// For each burst size B in 1..4096 the same skewed update stream (half
// the messages re-hit a prefix already in the burst — the router-facing
// case group commit exists for: flaps and hot /8 churn that coalesce to
// one net op) is replayed in bursts of B. The sequential baseline is the
// identical stream through apply(), one message per commit. A third
// phase drives the async ingress (submit() + updater thread) to measure
// the end-to-end rate including the handoff ring.
//
// Headline gauges (exported into BENCH_update.json, section
// "update_burst"):
//   update_burst.sequential_updates_per_sec
//   update_burst.batched_updates_per_sec      (burst = 1024)
//   update_burst.speedup                      (batched / sequential)
//   update_burst.async_updates_per_sec
//   update_burst.sequential_flat_blocks_recycled / _allocated (counters:
//   flat-image blocks the sequential phase took from the block pools /
//   from new)
// CLUE_BENCH_UPDATES scales the per-phase update quota (default 4096).
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "metrics_out.hpp"
#include "runtime/lookup_runtime.hpp"
#include "stats/stats.hpp"
#include "tcam/updater.hpp"
#include "workload/rib_gen.hpp"
#include "workload/traffic_gen.hpp"
#include "workload/update_gen.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using clue::netbase::NextHop;
using clue::workload::UpdateKind;
using clue::workload::UpdateMsg;

constexpr std::size_t kTableSize = 60'000;
constexpr std::size_t kWorkers = 4;
constexpr std::size_t kLookupChunk = 512;

std::size_t updates_from_env() {
  if (const char* env = std::getenv("CLUE_BENCH_UPDATES"); env && *env) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 4096;
}

/// The skewed burst stream: a consistent UpdateGenerator stream where
/// half the slots re-announce a prefix an earlier message of the *same
/// burst* already announced (fresh next hop) — intra-burst repeats are
/// exactly what coalescing folds to one net op.
std::vector<UpdateMsg> make_stream(const clue::trie::BinaryTrie& fib,
                                   std::size_t count, std::size_t burst,
                                   std::uint64_t seed) {
  clue::workload::UpdateConfig config;
  config.seed = seed;
  clue::workload::UpdateGenerator generator(fib, config);
  clue::netbase::Pcg32 rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<UpdateMsg> stream;
  stream.reserve(count);
  std::vector<std::size_t> burst_announces;  // indices into stream
  for (std::size_t i = 0; i < count; ++i) {
    if (i % burst == 0) burst_announces.clear();
    const bool repeat = !burst_announces.empty() && (rng.next() & 1) == 0;
    if (repeat) {
      const std::size_t victim =
          burst_announces[rng.next() % burst_announces.size()];
      UpdateMsg msg = stream[victim];
      msg.next_hop = clue::netbase::make_next_hop(
          (clue::netbase::to_index(msg.next_hop) % 32) + 1);
      stream.push_back(msg);
    } else {
      stream.push_back(generator.next());
    }
    if (stream.back().kind == UpdateKind::kAnnounce) {
      burst_announces.push_back(stream.size() - 1);
    }
  }
  return stream;
}

struct LookupLoad {
  std::thread thread;
  std::atomic<bool> stop{false};
  clue::stats::Percentiles latency_us;
  std::uint64_t lookups = 0;

  void start(clue::runtime::LookupRuntime& runtime,
             const std::vector<clue::netbase::Ipv4Address>& addresses) {
    thread = std::thread([this, &runtime, &addresses] {
      std::vector<double> latency;
      std::size_t at = 0;
      // At least one batch, so the latency percentiles are never empty
      // however quickly the update phase finishes.
      do {
        const std::size_t n =
            std::min(kLookupChunk, addresses.size() - at);
        const std::span<const clue::netbase::Ipv4Address> chunk(
            addresses.data() + at, n);
        runtime.lookup_batch(chunk, &latency);
        for (std::size_t i = 0; i < n; ++i) {
          latency_us.add(latency[i] / 1000.0);
        }
        lookups += n;
        at = (at + n) % addresses.size();
      } while (!stop.load(std::memory_order_acquire));
    });
  }
  void finish() {
    stop.store(true, std::memory_order_release);
    if (thread.joinable()) thread.join();
  }
};

struct PhaseResult {
  double updates_per_sec = 0;
  double p99_lookup_us = 0;
  std::uint64_t applied = 0;
  std::uint64_t rejected = 0;
  std::uint64_t ops_raw = 0;
  std::uint64_t ops_merged = 0;
  std::uint64_t publishes = 0;
  std::uint64_t batches = 0;
  /// Flat-image blocks the phase's rebuilds took from the chips' block
  /// pools / from new.
  std::uint64_t blocks_recycled = 0;
  std::uint64_t blocks_allocated = 0;
};

clue::runtime::RuntimeConfig runtime_config(std::size_t ring_depth) {
  clue::runtime::RuntimeConfig config;
  config.worker_count = kWorkers;
  config.update_ring_depth = ring_depth;
  return config;
}

/// Replays `stream` in bursts of `burst` (1 = the sequential apply()
/// path) against a fresh runtime, under concurrent lookup load.
PhaseResult run_phase(const clue::trie::BinaryTrie& fib,
                      const std::vector<UpdateMsg>& stream,
                      const std::vector<clue::netbase::Ipv4Address>& traffic,
                      std::size_t burst, bool async) {
  clue::runtime::LookupRuntime runtime(
      fib, runtime_config(async ? 4096 : 0));
  LookupLoad load;
  load.start(runtime, traffic);
  const auto before = runtime.metrics();

  PhaseResult result;
  const auto t0 = Clock::now();
  if (async) {
    for (const auto& msg : stream) runtime.submit(msg);
    runtime.flush_updates();
  } else if (burst == 1) {
    for (const auto& msg : stream) {
      try {
        runtime.apply(msg);
      } catch (const clue::tcam::TcamFullError&) {
        // counted by the runtime; keep replaying
      }
    }
  } else {
    for (std::size_t at = 0; at < stream.size(); at += burst) {
      const std::size_t n = std::min(burst, stream.size() - at);
      runtime.apply_batch(
          std::span<const UpdateMsg>(stream.data() + at, n));
    }
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  load.finish();

  const auto after = runtime.metrics();
  result.applied = after.updates_applied - before.updates_applied;
  result.rejected = after.updates_rejected - before.updates_rejected;
  result.ops_raw = after.batch_ops_raw - before.batch_ops_raw;
  result.ops_merged = after.batch_ops_merged - before.batch_ops_merged;
  result.publishes = after.batch_publishes - before.batch_publishes;
  result.batches = after.batches_applied - before.batches_applied;
  result.blocks_recycled =
      after.flat_blocks_recycled - before.flat_blocks_recycled;
  result.blocks_allocated =
      after.flat_blocks_allocated - before.flat_blocks_allocated;
  result.updates_per_sec =
      seconds > 0 ? static_cast<double>(stream.size()) / seconds : 0;
  result.p99_lookup_us = load.latency_us.quantile(0.99);
  runtime.stop();
  return result;
}

}  // namespace

int main() {
  using clue::stats::fixed;

  const std::size_t quota = updates_from_env();
  clue::workload::RibConfig rib_config;
  rib_config.table_size = kTableSize;
  rib_config.seed = 2011;
  const auto fib = clue::workload::generate_rib(rib_config);

  clue::workload::TrafficConfig traffic_config;
  traffic_config.seed = 77;
  std::vector<clue::netbase::Prefix> prefixes;
  fib.for_each_route([&prefixes](const clue::netbase::Route& route) {
    prefixes.push_back(route.prefix);
  });
  clue::workload::TrafficGenerator traffic_gen(prefixes, traffic_config);
  const auto traffic = traffic_gen.generate(16'384);

  std::cout << "Table: " << kTableSize << " routes; " << quota
            << " updates per phase (CLUE_BENCH_UPDATES); " << kWorkers
            << " chip workers; lookup load concurrent with every phase.\n";

  // Sequential baseline: burst 1 through apply(), same stream shape the
  // burst 1024 phase replays (seeded per phase below).
  const auto seq_stream = make_stream(fib, quota, 1024, 42);
  const PhaseResult seq = run_phase(fib, seq_stream, traffic, 1, false);

  const std::size_t bursts[] = {4, 16, 64, 256, 1024, 4096};
  clue::stats::TablePrinter table({"burst", "updates_per_sec", "speedup",
                                   "p99_lookup_us", "coalesce_saving",
                                   "publishes_per_batch"});
  table.add_row({"1 (apply)", fixed(seq.updates_per_sec, 0), "1.00",
                 fixed(seq.p99_lookup_us, 1),
                 seq.ops_raw
                     ? fixed(1.0 - static_cast<double>(seq.ops_merged) /
                                       static_cast<double>(seq.ops_raw),
                             3)
                     : "0",
                 seq.batches ? fixed(static_cast<double>(seq.publishes) /
                                         static_cast<double>(seq.batches),
                                     2)
                             : "0"});

  double batched_1024 = 0;
  double p99_1024 = 0;
  for (const std::size_t burst : bursts) {
    const auto stream = make_stream(fib, std::max(quota, burst), burst, 42);
    const PhaseResult r = run_phase(fib, stream, traffic, burst, false);
    if (burst == 1024) {
      batched_1024 = r.updates_per_sec;
      p99_1024 = r.p99_lookup_us;
    }
    table.add_row(
        {std::to_string(burst), fixed(r.updates_per_sec, 0),
         fixed(seq.updates_per_sec > 0
                   ? r.updates_per_sec / seq.updates_per_sec
                   : 0,
               2),
         fixed(r.p99_lookup_us, 1),
         r.ops_raw ? fixed(1.0 - static_cast<double>(r.ops_merged) /
                                     static_cast<double>(r.ops_raw),
                           3)
                   : "0",
         r.batches ? fixed(static_cast<double>(r.publishes) /
                               static_cast<double>(r.batches),
                           2)
                   : "0"});
  }

  // Async ingress: submit() through the update ring, updater thread
  // batches adaptively.
  const auto async_stream = make_stream(fib, quota, 1024, 42);
  const PhaseResult async_r = run_phase(fib, async_stream, traffic, 0, true);
  table.add_row({"async", fixed(async_r.updates_per_sec, 0),
                 fixed(seq.updates_per_sec > 0
                           ? async_r.updates_per_sec / seq.updates_per_sec
                           : 0,
                       2),
                 fixed(async_r.p99_lookup_us, 1),
                 async_r.ops_raw
                     ? fixed(1.0 - static_cast<double>(async_r.ops_merged) /
                                       static_cast<double>(async_r.ops_raw),
                             3)
                     : "0",
                 async_r.batches
                     ? fixed(static_cast<double>(async_r.publishes) /
                                 static_cast<double>(async_r.batches),
                             2)
                     : "0"});

  std::cout << "\n=== Group-commit burst replay (sustained updates/sec, "
               "p99 lookup latency during burst) ===\n";
  table.print(std::cout);

  const double speedup =
      seq.updates_per_sec > 0 ? batched_1024 / seq.updates_per_sec : 0;
  std::cout << "\nHeadline: burst 1024 " << fixed(batched_1024, 0)
            << " updates/s vs sequential " << fixed(seq.updates_per_sec, 0)
            << " updates/s -> speedup " << fixed(speedup, 2)
            << "x (acceptance floor: 3x)\n";

  clue::obs::MetricsRegistry registry;
  clue::bench::add_table(registry, "update_burst", table);
  registry.set_gauge("update_burst.sequential_updates_per_sec",
                     seq.updates_per_sec);
  registry.set_gauge("update_burst.batched_updates_per_sec", batched_1024);
  registry.set_gauge("update_burst.speedup", speedup);
  registry.set_gauge("update_burst.async_updates_per_sec",
                     async_r.updates_per_sec);
  registry.set_gauge("update_burst.p99_lookup_us_sequential",
                     seq.p99_lookup_us);
  registry.set_counter("update_burst.sequential_flat_blocks_recycled",
                       seq.blocks_recycled);
  registry.set_counter("update_burst.sequential_flat_blocks_allocated",
                       seq.blocks_allocated);
  registry.set_gauge("update_burst.p99_lookup_us_batched_1024", p99_1024);
  clue::bench::export_run("update_burst", registry);
  clue::bench::export_bench_section("BENCH_update", "update_burst", registry);
  return 0;
}
