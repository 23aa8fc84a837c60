// Threaded runtime throughput: Mlookups/s and batch latency quantiles
// versus worker-thread count, with and without concurrent BGP churn.
//
// The simulation benches (bench_speedup et al.) measure the paper's
// clock-accurate model; this one measures the actual concurrent
// runtime — real threads, real SPSC rings, real epoch-protected table
// swaps. On a multi-core host the 1->4 worker column should scale
// close to linearly for uniform traffic; on a single hardware thread
// it degenerates to context-switch throughput (the numbers still
// print, the scaling claim needs cores).
//
// Observability: every run exports through obs::MetricsRegistry — the
// figure table, per-worker service-time histograms, the client latency
// histogram, and the TTF stage traces of the churn thread's updates.
//
//   $ ./bench/bench_runtime_throughput
//   $ CLUE_CSV_DIR=/tmp ./bench/bench_runtime_throughput
//   $ CLUE_METRICS_DIR=/tmp ./bench/bench_runtime_throughput   # JSON
//   $ CLUE_BENCH_LOOKUPS=50000 ./bench/bench_runtime_throughput  # smoke
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "engine/flat_table.hpp"
#include "metrics_out.hpp"
#include "obs/metrics_registry.hpp"
#include "onrtc/compressed_fib.hpp"
#include "runtime/lookup_runtime.hpp"
#include "stats/stats.hpp"
#include "workload/rib_gen.hpp"
#include "workload/update_gen.hpp"

namespace {

using clue::netbase::Ipv4Address;
using clue::netbase::Pcg32;
using clue::runtime::LookupRuntime;
using clue::runtime::RuntimeConfig;

struct RunResult {
  double mlookups_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double dred_hit_rate = 0.0;
  std::uint64_t diverted = 0;
};

RunResult run_once(const clue::trie::BinaryTrie& fib,
                   const RuntimeConfig& config, std::size_t lookups,
                   std::size_t updates_in_flight,
                   clue::obs::MetricsRegistry& registry,
                   const std::string& run_tag) {
  LookupRuntime runtime(fib, config);

  // Optional concurrent churn from a control thread.
  std::atomic<bool> stop{false};
  std::thread control;
  if (updates_in_flight > 0) {
    control = std::thread([&runtime, &fib, &stop] {
      clue::workload::UpdateConfig update_config;
      update_config.seed = 4102;
      clue::workload::UpdateGenerator updates(fib, update_config);
      while (!stop.load(std::memory_order_acquire)) {
        runtime.apply(updates.next());
      }
    });
  }

  Pcg32 rng(4103);
  constexpr std::size_t kBatch = 4096;
  std::vector<Ipv4Address> batch;
  batch.reserve(kBatch);
  clue::stats::Percentiles latency;
  std::vector<double> latency_ns;

  const auto start = std::chrono::steady_clock::now();
  std::size_t done = 0;
  while (done < lookups) {
    batch.clear();
    const std::size_t n = std::min(kBatch, lookups - done);
    for (std::size_t i = 0; i < n; ++i) batch.emplace_back(rng.next());
    runtime.lookup_batch(batch, &latency_ns);
    for (const double ns : latency_ns) latency.add(ns / 1000.0);
    done += n;
  }
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  stop.store(true, std::memory_order_release);
  if (control.joinable()) control.join();
  // Quiescent counters: stopping drains every fill ring, so the fill
  // counts below are final (applied + stale == sent).
  runtime.stop();

  const auto metrics = runtime.metrics();
  RunResult result;
  result.mlookups_per_s =
      static_cast<double>(done) / elapsed / 1e6;
  result.p50_us = latency.quantile(0.50);
  result.p99_us = latency.quantile(0.99);
  result.p999_us = latency.quantile(0.999);
  result.dred_hit_rate = metrics.dred_hit_rate();
  result.diverted = metrics.diverted;

  registry.set_gauge(run_tag + ".mlookups_per_s", result.mlookups_per_s);
  registry.set_counter(run_tag + ".diverted", metrics.diverted);
  registry.set_counter(run_tag + ".backpressure_waits",
                       metrics.backpressure_waits);
  registry.set_counter(run_tag + ".client_stalls", metrics.client_stalls);
  registry.set_counter(run_tag + ".updates_applied",
                       metrics.updates_applied);
  registry.set_gauge(run_tag + ".dred_hit_rate", result.dred_hit_rate);
  registry.set_counter(run_tag + ".fills_sent", metrics.fills_sent);
  registry.set_counter(run_tag + ".fills_applied", metrics.fills_applied);
  registry.set_counter(run_tag + ".fills_declined", metrics.fills_declined);
  // Per-worker service-time histograms + client latency histogram.
  for (std::size_t w = 0; w < runtime.worker_count(); ++w) {
    registry.add_histogram(
        run_tag + ".worker" + std::to_string(w) + ".service_ns",
        runtime.worker_service_histogram(w));
  }
  registry.add_histogram(run_tag + ".client.latency_ns",
                         runtime.client_latency_histogram());
  // TTF stage traces from the churn thread's updates (empty when the
  // run had no churn).
  registry.add_ttf_trace(run_tag + ".ttf", runtime.ttf_trace());
  // Start-up gauges from the runtime's own export: the control tries'
  // bytes and the CompressedFib build inside the constructor.
  clue::obs::MetricsRegistry own;
  runtime.export_metrics(own);
  for (const auto& [name, value] : own.gauges()) {
    if (name == "onrtc.trie_bytes" || name == "runtime.fib_build_ns") {
      registry.set_gauge(run_tag + "." + name, value);
    }
  }
  return result;
}

/// Addresses drawn from inside the table's routed ranges — the traffic a
/// deployed router actually resolves. Uniform-random 32-bit addresses
/// mostly miss a 100k-route synthetic RIB after a few trie levels, which
/// would flatter the trie path.
std::vector<Ipv4Address> matched_pool(const clue::trie::BinaryTrie& table,
                                      std::size_t count, std::uint64_t seed) {
  const auto routes = table.routes();
  Pcg32 rng(seed);
  std::vector<Ipv4Address> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& route = routes[rng.next_below(
        static_cast<std::uint32_t>(routes.size()))];
    const std::uint32_t span_bits = 32u - route.prefix.length();
    const std::uint32_t offset =
        span_bits >= 32 ? rng.next() : rng.next() & ((1u << span_bits) - 1u);
    pool.emplace_back(route.prefix.range_low().value() + offset);
  }
  return pool;
}

/// One chip's resolution loop, flat image vs trie walk — transport-free,
/// so the number is the table structure's own service rate. The flat
/// side replays the worker loop's batch prefetch (issue all level-1
/// lines, then resolve); the trie side cannot prefetch a pointer chase.
double resolve_mlps_trie(const clue::trie::BinaryTrie& table,
                         const std::vector<Ipv4Address>& pool,
                         std::size_t lookups) {
  std::uint64_t sink = 0;
  std::size_t done = 0;
  const auto start = std::chrono::steady_clock::now();
  while (done < lookups) {
    const std::size_t n = std::min(pool.size(), lookups - done);
    for (std::size_t i = 0; i < n; ++i) {
      sink += clue::netbase::to_index(table.lookup(pool[i]));
    }
    done += n;
  }
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  volatile std::uint64_t keep = sink;
  (void)keep;
  return static_cast<double>(done) / elapsed / 1e6;
}

double resolve_mlps_flat(const clue::engine::FlatLookupTable& flat,
                         const std::vector<Ipv4Address>& pool,
                         std::size_t lookups) {
  constexpr std::size_t kPrefetchBatch = 32;
  std::uint64_t sink = 0;
  std::size_t done = 0;
  const auto start = std::chrono::steady_clock::now();
  while (done < lookups) {
    const std::size_t n = std::min(pool.size(), lookups - done);
    for (std::size_t base = 0; base < n; base += kPrefetchBatch) {
      const std::size_t end = std::min(base + kPrefetchBatch, n);
      for (std::size_t i = base; i < end; ++i) flat.prefetch(pool[i]);
      for (std::size_t i = base; i < end; ++i) {
        sink += clue::netbase::to_index(flat.lookup(pool[i]));
      }
    }
    done += n;
  }
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  volatile std::uint64_t keep = sink;
  (void)keep;
  return static_cast<double>(done) / elapsed / 1e6;
}

std::size_t lookups_from_env(std::size_t fallback) {
  const char* value = std::getenv("CLUE_BENCH_LOOKUPS");
  if (!value || !*value) return fallback;
  const long long parsed = std::atoll(value);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

}  // namespace

int main() {
  using clue::stats::fixed;
  using clue::stats::percent;

  const std::size_t kLookups = lookups_from_env(2'000'000);

  clue::workload::RibConfig rib_config;
  rib_config.table_size = 100'000;
  rib_config.seed = 4101;
  const auto fib = clue::workload::generate_rib(rib_config);

  std::cout << "=== Threaded runtime throughput (" << fib.size()
            << " routes, batches of 4096, "
            << std::thread::hardware_concurrency()
            << " hardware threads, " << kLookups << " lookups/run) ===\n\n";

  clue::obs::MetricsRegistry registry;
  std::vector<std::vector<std::string>> csv_rows;
  clue::stats::TablePrinter out({"Workers", "Churn", "Mlookups/s", "Scaling",
                                 "p50(us)", "p99(us)", "p999(us)", "DRedHit"});
  double base = 0.0;
  for (const bool churn : {false, true}) {
    for (const std::size_t workers : {1u, 2u, 4u}) {
      const std::string tag = "w" + std::to_string(workers) +
                              (churn ? ".churn" : ".nochurn");
      RuntimeConfig config;
      config.worker_count = workers;
      const auto r = run_once(fib, config, kLookups, churn ? 1 : 0,
                              registry, tag);
      if (workers == 1 && !churn) base = r.mlookups_per_s;
      const double scaling = base > 0.0 ? r.mlookups_per_s / base : 0.0;
      out.add_row({std::to_string(workers), churn ? "yes" : "no",
                   fixed(r.mlookups_per_s, 3), fixed(scaling, 2) + "x",
                   fixed(r.p50_us, 1), fixed(r.p99_us, 1),
                   fixed(r.p999_us, 1), percent(r.dred_hit_rate)});
      csv_rows.push_back({std::to_string(workers), churn ? "1" : "0",
                          fixed(r.mlookups_per_s, 4), fixed(r.p50_us, 2),
                          fixed(r.p99_us, 2), fixed(r.p999_us, 2)});
    }
  }
  out.print(std::cout);
  std::cout << "\nLatency is submit-to-completion per address inside a\n"
               "4096-address batch (queueing included). Churn = a control\n"
               "thread applying BGP updates back-to-back during the run;\n"
               "throughput should barely move — lookups read snapshots and\n"
               "never take a lock. Set CLUE_METRICS_DIR for the full JSON\n"
               "export (per-worker latency histograms, TTF stage traces).\n";

  registry.add_table(
      "runtime_throughput",
      {"workers", "churn", "mlookups_per_s", "p50_us", "p99_us", "p999_us"},
      csv_rows);

  // Flat-path A/B over a matched-traffic pool (addresses inside routed
  // ranges — the packets a router actually resolves), best of N per side
  // so scheduler noise can only understate the win: one chip's
  // resolution loop in isolation — the flat direct-index image vs the
  // trie walk, transport-free. This is the structure the paper's
  // non-overlap property pays for. (The runtime itself serves only from
  // flat images; its end-to-end rate is the table above.)
  constexpr int kAbReps = 3;
  const clue::onrtc::CompressedFib compressed(fib);
  const auto& chip_table = compressed.compressed();
  const clue::engine::FlatLookupTable flat_image(chip_table);
  const auto pool = matched_pool(chip_table, 1u << 20, 4104);
  std::cout << "\n=== Flat lookup A/B (single chip, " << chip_table.size()
            << " disjoint routes, matched traffic, best of " << kAbReps
            << ") ===\n\n";

  double chip_trie = 0.0;
  double chip_flat = 0.0;
  for (int rep = 0; rep < kAbReps; ++rep) {
    chip_trie = std::max(chip_trie, resolve_mlps_trie(chip_table, pool,
                                                      kLookups));
    chip_flat = std::max(chip_flat, resolve_mlps_flat(flat_image, pool,
                                                      kLookups));
  }
  const double chip_speedup = chip_trie > 0.0 ? chip_flat / chip_trie : 0.0;


  clue::stats::TablePrinter ab_out(
      {"Scope", "Path", "Mlookups/s", "Speedup"});
  ab_out.add_row({"single-chip", "trie", fixed(chip_trie, 3), "1.00x"});
  ab_out.add_row({"single-chip", "flat", fixed(chip_flat, 3),
                  fixed(chip_speedup, 2) + "x"});
  ab_out.print(std::cout);
  std::cout << "\nFlat image: " << flat_image.memory_bytes() / 1024 / 1024
            << " MiB across " << flat_image.chunk_count() << " chunks, "
            << flat_image.l2_block_count() << " level-2 blocks.\n";

  registry.set_gauge("flat_ab.trie_mlookups_per_s", chip_trie);
  registry.set_gauge("flat_ab.flat_mlookups_per_s", chip_flat);
  registry.set_gauge("flat_ab.speedup", chip_speedup);
  registry.set_gauge("flat_ab.flat_bytes",
                     static_cast<double>(flat_image.memory_bytes()));
  registry.add_table(
      "flat_ab", {"scope", "path", "mlookups_per_s", "speedup"},
      {{"single-chip", "trie", fixed(chip_trie, 4), "1.0"},
       {"single-chip", "flat", fixed(chip_flat, 4), fixed(chip_speedup, 4)}});

  clue::bench::export_run("runtime_throughput", registry);
  // Machine-readable perf trajectory: the same registry under the
  // BENCH_runtime.json name CI and tooling key on.
  clue::bench::export_run("BENCH_runtime", registry);
  return 0;
}
