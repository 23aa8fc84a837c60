// Online boundary rebalancer: what does keeping the partition even cost,
// and what does it buy?
//
// Scenario: hot-/8 churn — announces concentrated below the first
// partition boundary (chip 0's range), the drift pattern §III-A's
// construction-time evenness cannot survive. Two runs of the concurrent
// runtime, rebalancer off vs. on, with a client thread hammering
// lookups throughout:
//
//   off  occupancy drifts freely (capacity is padded so nothing
//        overflows); afterwards one forced rebalance_now() measures the
//        recovery cost of the accumulated drift in one bill.
//   on   watermark-triggered passes amortize migrations across the
//        churn; the table reports their count, migrated entries, and
//        per-pass latency quantiles next to the update and lookup
//        throughput they cost.
//
//   $ ./bench/bench_rebalance
//   $ CLUE_BENCH_UPDATES=5000 ./bench/bench_rebalance   # smoke
//   $ CLUE_METRICS_DIR=/tmp ./bench/bench_rebalance     # JSON export
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "metrics_out.hpp"
#include "netbase/rng.hpp"
#include "obs/metrics_registry.hpp"
#include "onrtc/compressed_fib.hpp"
#include "runtime/lookup_runtime.hpp"
#include "stats/stats.hpp"
#include "update/group_commit.hpp"
#include "workload/rib_gen.hpp"
#include "workload/update_gen.hpp"

namespace {

using clue::netbase::Ipv4Address;
using clue::netbase::make_next_hop;
using clue::netbase::Pcg32;
using clue::netbase::Prefix;
using clue::runtime::LookupRuntime;
using clue::runtime::RuntimeConfig;

constexpr std::size_t kWorkers = 4;

struct RunResult {
  double updates_per_s = 0.0;
  double mlookups_per_s = 0.0;
  double drift_skew = 1.0;  ///< skew when the churn stops
  double final_skew = 1.0;  ///< after the closing rebalance_now()
  std::uint64_t passes = 0;
  std::uint64_t migrated = 0;
  double pass_p50_us = 0.0;
  double pass_p99_us = 0.0;
  double recovery_ms = 0.0;  ///< wall time of the closing rebalance_now()
};

RunResult run_once(const clue::trie::BinaryTrie& fib, bool rebalance_on,
                   std::size_t chip_capacity, std::size_t updates,
                   clue::obs::MetricsRegistry* registry,
                   const std::string& run_tag) {
  RuntimeConfig config;
  config.worker_count = kWorkers;
  config.chip_capacity = chip_capacity;
  config.rebalance = rebalance_on;
  LookupRuntime runtime(fib, config);
  const std::uint32_t bound = runtime.boundaries().front().value();

  std::atomic<bool> done{false};
  std::atomic<double> updates_per_s{0.0};
  std::thread control([&] {
    Pcg32 rng(7202);
    std::vector<Prefix> live;
    const std::size_t hot_target = updates / 4 + 1;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t u = 0; u < updates; ++u) {
      clue::workload::UpdateMsg msg;
      if (live.size() < hot_target || rng.next_below(2) == 0) {
        msg.kind = clue::workload::UpdateKind::kAnnounce;
        msg.prefix = Prefix(Ipv4Address(rng.next_below(bound)), 24);
        msg.next_hop = make_next_hop(1 + rng.next_below(250));
        live.push_back(msg.prefix);
      } else {
        const std::size_t pick =
            rng.next_below(static_cast<std::uint32_t>(live.size()));
        msg.kind = clue::workload::UpdateKind::kWithdraw;
        msg.prefix = live[pick];
        live[pick] = live.back();
        live.pop_back();
      }
      runtime.apply(msg);
    }
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    updates_per_s.store(static_cast<double>(updates) / elapsed,
                        std::memory_order_relaxed);
    done.store(true, std::memory_order_release);
  });

  Pcg32 rng(7203);
  constexpr std::size_t kBatch = 4096;
  std::vector<Ipv4Address> batch;
  batch.reserve(kBatch);
  std::size_t looked_up = 0;
  const auto start = std::chrono::steady_clock::now();
  while (!done.load(std::memory_order_acquire)) {
    batch.clear();
    // Half hot: the migrated region stays under lookup pressure.
    for (std::size_t i = 0; i < kBatch / 2; ++i) {
      batch.emplace_back(rng.next());
    }
    for (std::size_t i = 0; i < kBatch / 2; ++i) {
      batch.emplace_back(rng.next_below(bound));
    }
    runtime.lookup_batch(batch);
    looked_up += batch.size();
  }
  const double lookup_elapsed = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - start)
                                    .count();
  control.join();

  RunResult result;
  result.updates_per_s = updates_per_s.load(std::memory_order_relaxed);
  result.mlookups_per_s =
      static_cast<double>(looked_up) / lookup_elapsed / 1e6;
  result.drift_skew = runtime.skew();

  const auto recovery_start = std::chrono::steady_clock::now();
  runtime.rebalance_now();
  result.recovery_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - recovery_start)
                           .count();
  result.final_skew = runtime.skew();

  const auto metrics = runtime.metrics();
  result.passes = metrics.rebalance_passes;
  result.migrated = metrics.entries_migrated;

  clue::obs::MetricsRegistry scratch;
  runtime.export_metrics(scratch);
  for (const auto& [name, snapshot] : scratch.histograms()) {
    if (name == "runtime.rebalance_ns" && !snapshot.empty()) {
      result.pass_p50_us = snapshot.quantile_ns(0.50) / 1000.0;
      result.pass_p99_us = snapshot.quantile_ns(0.99) / 1000.0;
    }
  }

  if (registry) {
    registry->set_gauge(run_tag + ".updates_per_s", result.updates_per_s);
    registry->set_gauge(run_tag + ".mlookups_per_s", result.mlookups_per_s);
    registry->set_gauge(run_tag + ".drift_skew", result.drift_skew);
    registry->set_gauge(run_tag + ".final_skew", result.final_skew);
    registry->set_counter(run_tag + ".rebalance_passes", result.passes);
    registry->set_counter(run_tag + ".entries_migrated", result.migrated);
    registry->set_gauge(run_tag + ".recovery_ms", result.recovery_ms);
    registry->set_counter(run_tag + ".chip_capacity", runtime.chip_capacity());
    registry->add_ttf_trace(run_tag + ".ttf", runtime.ttf_trace());
  }
  return result;
}

std::size_t updates_from_env(std::size_t fallback) {
  const char* value = std::getenv("CLUE_BENCH_UPDATES");
  if (!value || !*value) return fallback;
  const long long parsed = std::atoll(value);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

}  // namespace

int main() {
  using clue::stats::fixed;

  const std::size_t kUpdates = updates_from_env(20'000);

  clue::workload::RibConfig rib_config;
  rib_config.table_size = 20'000;
  rib_config.seed = 7201;
  const auto fib = clue::workload::generate_rib(rib_config);
  // Same padding both modes, so drift never overflows: room for each chip
  // to grow to 5x its initial even share of the compressed table.
  const std::size_t chip_capacity = clue::update::auto_capacity(
      clue::onrtc::CompressedFib(fib).size() / kWorkers + 1, 4.0);

  std::cout << "=== Boundary rebalancer under hot-/8 churn (" << fib.size()
            << " routes, " << kUpdates << " updates, " << kWorkers
            << " workers, chip capacity " << chip_capacity << ") ===\n\n";

  clue::obs::MetricsRegistry registry;
  std::vector<std::vector<std::string>> csv_rows;
  clue::stats::TablePrinter out({"Rebalancer", "Updates/s", "Mlookups/s",
                                 "DriftSkew", "FinalSkew", "Passes",
                                 "Migrated", "PassP50(us)", "PassP99(us)",
                                 "Recovery(ms)"});
  for (const bool on : {false, true}) {
    const std::string tag = on ? "rebalance_on" : "rebalance_off";
    const auto r = run_once(fib, on, chip_capacity, kUpdates, &registry, tag);
    out.add_row({on ? "on" : "off", fixed(r.updates_per_s, 0),
                 fixed(r.mlookups_per_s, 3), fixed(r.drift_skew, 2),
                 fixed(r.final_skew, 2), std::to_string(r.passes),
                 std::to_string(r.migrated), fixed(r.pass_p50_us, 1),
                 fixed(r.pass_p99_us, 1), fixed(r.recovery_ms, 2)});
    csv_rows.push_back({on ? "1" : "0", fixed(r.updates_per_s, 1),
                        fixed(r.mlookups_per_s, 4), fixed(r.drift_skew, 3),
                        fixed(r.final_skew, 3), std::to_string(r.passes),
                        std::to_string(r.migrated), fixed(r.recovery_ms, 3)});
  }
  out.print(std::cout);
  std::cout << "\nDriftSkew is max/min chip occupancy when churn stops;\n"
               "FinalSkew follows one forced rebalance_now(). With the\n"
               "rebalancer off the drift accumulates and Recovery(ms) pays\n"
               "for it all at once; with it on, watermark-triggered passes\n"
               "(PassP50/P99 wall time each) keep skew bounded while\n"
               "lookups keep flowing — compare the Mlookups/s columns.\n";

  registry.add_table("rebalance",
                     {"rebalance_on", "updates_per_s", "mlookups_per_s",
                      "drift_skew", "final_skew", "passes", "migrated",
                      "recovery_ms"},
                     csv_rows);
  clue::bench::export_run("rebalance", registry);
  return 0;
}
