// clue_perfbench — the repository benchmark.
//
//   clue_perfbench --workload <lookup-zipf|update-seq>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--rib-size <routes>] [--rounds <k>] [--git-sha <sha>]
//
// Every input (the 400K-route RIB, a Zipf(1.0) address stream, the update
// stream) is generated from --seed before anything is timed. The run is
// split into --rounds rounds; round r constructs a fresh LookupRuntime
// (one set-up sample) from the RIB with the first r * kRoundUpdates
// stream messages applied, drives the workload from a freshly started
// driver thread for seconds/rounds on the next slice of the stream, and
// ends with a quiescent probe that checks every address of the stream
// against the ground truth. Every end-to-end metric but peak RSS is a
// median over rounds of a per-round figure. --trace 1 alternates
// untraced and traced rounds and reports the per-layer metrics plus the
// tracing overhead (traced over untraced values). The last stdout line is
// the JSON result; README.md in this directory explains the workloads.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "oracle.hpp"
#include "report.hpp"
#include "runtime/lookup_runtime.hpp"
#include "tcam/updater.hpp"
#include "workload/rib_gen.hpp"
#include "workload/traffic_gen.hpp"
#include "workload/update_gen.hpp"

namespace {

using namespace clue;
using perfbench::AnswerHistory;
using perfbench::quantile;
using perfbench::Report;
using netbase::Ipv4Address;
using netbase::NextHop;
using workload::UpdateMsg;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kAddressCount = std::size_t{1} << 20;
/// Addresses per lookup_batch call in the closed loop and the probe.
constexpr std::size_t kLookupSlice = 4096;
/// Share of a round spent on the workload's tail phase, the source of its
/// secondary metrics: lookup-zipf's apply() tail after its lookup window,
/// update-seq's lookup tail after its commit window.
constexpr double kTailShare = 0.2;
/// Stream messages each round owns. Rounds take consecutive slices, so a
/// run commits many distinct messages instead of replaying the first few
/// in every round (which made the commit rate depend on the seed's first
/// messages). A round that runs out of its slice stops early.
constexpr std::size_t kRoundUpdates = 2048;
/// Messages per update::coalesce_ops call in the traced layer measurement.
constexpr std::size_t kCoalesceBurst = 64;

enum class Workload { kLookupZipf, kUpdateSeq };

struct Options {
  Workload workload = Workload::kLookupZipf;
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::size_t rib_size = 400'000;
  std::size_t rounds = 16;
  std::string git_sha = "unknown";
};

bool parse_options(int argc, char** argv, Options& opt) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload_name = value;
      if (value == "lookup-zipf") {
        opt.workload = Workload::kLookupZipf;
      } else if (value == "update-seq") {
        opt.workload = Workload::kUpdateSeq;
      } else {
        return false;
      }
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end && *end == '\0';
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end && *end == '\0' && opt.seconds > 0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else if (key == "--rib-size") {
      opt.rib_size = std::strtoull(value.c_str(), &end, 10);
      if (opt.rib_size < 1000) return false;
    } else if (key == "--rounds") {
      opt.rounds = std::strtoull(value.c_str(), &end, 10);
      if (opt.rounds < 2 || opt.rounds > 64) return false;
    } else if (key == "--git-sha") {
      opt.git_sha = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && argc % 2 == 1;
}

/// Independent sub-seeds from the one --seed argument.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

struct Inputs {
  trie::BinaryTrie rib;
  std::vector<Ipv4Address> addresses;
  std::vector<UpdateMsg> updates;
  std::unique_ptr<AnswerHistory> history;
};

/// The driver thread's CPU at its start and end (sched_getcpu).
struct CpuRecord {
  int start = -1;
  int end = -1;
};

struct LookupSide {
  std::vector<double> latency_us;  ///< per call
  /// traced: every 64th per-address submit-to-completion latency
  /// lookup_batch reports (the runtime's own client-side measurement)
  std::vector<double> client_ns;
  std::uint64_t lookups = 0;
  /// time inside lookup_batch calls; the oracle checks between calls are
  /// the benchmark's own work and stay out of the rate
  double busy_s = 0;
  std::uint64_t wrong = 0;
};

struct CommitSide {
  std::vector<double> latency_us;  ///< per apply() call
  std::vector<double> other_us;    ///< traced: wall minus TTF1+2+3
  std::uint64_t messages = 0;
  double span_s = 0;
  std::uint64_t pending_max = 0;   ///< traced: max tables_pending seen
};

struct Round {
  bool traced = false;
  double setup_s = 0;
  LookupSide lookup;
  CommitSide commit;
  /// untimed, checked passes over the stream: warm-up and post-commit probe
  LookupSide probe;
  CpuRecord cpu;
  runtime::RuntimeMetrics metrics;
  std::vector<obs::TtfTraceEntry> ttf;
  std::vector<double> service_ns_mean;  ///< per worker
  double rebalance_us = 0;  ///< one forced rebalance pass at round end
};

/// Closed loop: lookup_batch on consecutive kLookupSlice slices of the
/// address stream, back to back, for `seconds` (or exactly one pass over
/// the stream when `seconds` is 0). Every answer is checked against the
/// history at `state` (stream messages applied).
void lookup_closed_loop(runtime::LookupRuntime& rt, const Inputs& in,
                        std::uint64_t state, double seconds, bool traced,
                        LookupSide& out) {
  std::vector<double> latency_ns;
  const std::size_t slices = in.addresses.size() / kLookupSlice;
  const auto start = Clock::now();
  for (std::size_t s = 0;; ++s) {
    if (seconds > 0 ? seconds_since(start) >= seconds : s == slices) break;
    const std::size_t at = (s % slices) * kLookupSlice;
    const std::span<const Ipv4Address> slice(in.addresses.data() + at,
                                             kLookupSlice);
    const auto t0 = Clock::now();
    const std::vector<NextHop> hops =
        rt.lookup_batch(slice, traced ? &latency_ns : nullptr);
    const double call_us = us_between(t0, Clock::now());
    out.latency_us.push_back(call_us);
    out.busy_s += call_us / 1e6;
    for (std::size_t i = 0; traced && i < latency_ns.size(); i += 64) {
      out.client_ns.push_back(latency_ns[i]);
    }
    for (std::size_t i = 0; i < kLookupSlice; ++i) {
      if (in.history->at(at + i, state) != hops[i]) ++out.wrong;
    }
    out.lookups += kLookupSlice;
  }
}

/// Closed loop: apply() one message of `updates` per commit, back to back,
/// until the slice ends or `seconds` elapse.
void commit_sequential(runtime::LookupRuntime& rt,
                       std::span<const UpdateMsg> updates, double seconds,
                       bool traced, CommitSide& out) {
  const auto start = Clock::now();
  for (const UpdateMsg& msg : updates) {
    if (seconds_since(start) >= seconds) break;
    const auto t0 = Clock::now();
    update::TtfSample ttf;
    try {
      ttf = rt.apply(msg);
    } catch (const tcam::TcamFullError&) {
      // Counted in updates_rejected, which the run reports as failures.
    }
    const double wall_us = us_between(t0, Clock::now());
    out.latency_us.push_back(wall_us);
    ++out.messages;
    if (traced) {
      out.other_us.push_back(wall_us - ttf.total_ns() / 1e3);
      out.pending_max = std::max(out.pending_max, rt.metrics().tables_pending);
    }
  }
  out.span_s = seconds_since(start);
}

/// One round: `rib` holds the RIB with the stream's first `base` messages
/// applied, and the round commits from stream position `base`.
Round run_round(const Options& opt, const Inputs& in,
                const trie::BinaryTrie& rib, std::uint64_t base, bool traced) {
  Round round;
  round.traced = traced;
  const double window = opt.seconds / static_cast<double>(opt.rounds);
  const std::span<const UpdateMsg> slice(in.updates.data() + base,
                                         kRoundUpdates);

  runtime::RuntimeConfig config;
  config.worker_count = kWorkers;
  const auto t0 = Clock::now();
  auto rt = std::make_unique<runtime::LookupRuntime>(rib, config);
  round.setup_s = seconds_since(t0);

  // A fresh driver thread per round, so a run spreads over many thread
  // placements.
  std::thread driver([&] {
    round.cpu.start = sched_getcpu();
    if (opt.workload == Workload::kLookupZipf) {
      // One checked pass warms the caches of the fresh runtime first.
      lookup_closed_loop(*rt, in, base, 0, false, round.probe);
      lookup_closed_loop(*rt, in, base, window * (1 - kTailShare), traced,
                         round.lookup);
      commit_sequential(*rt, slice, window * kTailShare, traced,
                        round.commit);
    } else {
      commit_sequential(*rt, slice, window * (1 - kTailShare), traced,
                        round.commit);
      // The quiescent probe also warms the caches the commits left cold
      // before the timed lookup tail.
      const std::uint64_t state = base + round.commit.messages;
      lookup_closed_loop(*rt, in, state, 0, false, round.probe);
      lookup_closed_loop(*rt, in, state, window * kTailShare, traced,
                         round.lookup);
    }
    round.cpu.end = sched_getcpu();
  });
  driver.join();

  if (opt.workload == Workload::kLookupZipf) {
    lookup_closed_loop(*rt, in, base + round.commit.messages, 0, false,
                       round.probe);
  }

  round.metrics = rt->metrics();
  if (traced) {
    round.ttf = rt->ttf_trace();
    for (std::size_t w = 0; w < rt->worker_count(); ++w) {
      round.service_ns_mean.push_back(
          rt->worker_service_histogram(w).mean_ns());
    }
    // The workloads never cross the rebalance watermarks, so time one
    // forced pass (quiescent, after the probe) as the layer's cost.
    const auto rb0 = Clock::now();
    rt->rebalance_now();
    round.rebalance_us = us_between(rb0, Clock::now());
  }
  rt->stop();
  return round;
}

/// End-to-end metrics of the untraced (or traced) rounds, in
/// BENCHMARK.json order. Each is the median over rounds of a per-round
/// figure (set-up time, a rate, or a percentile of that round's calls or
/// commits): a round whose threads landed on faster or slower CPUs moves
/// the result only when such rounds are the majority, where pooling every
/// call of the run let the share of those rounds shift the percentiles.
Report end_to_end_metrics(const std::vector<Round>& rounds, bool traced) {
  std::vector<double> setup, lookup_rate, lookup_p50, lookup_p90,
      update_rate, commit_p50, commit_p90;
  for (const Round& r : rounds) {
    if (r.traced != traced) continue;
    setup.push_back(r.setup_s);
    lookup_rate.push_back(static_cast<double>(r.lookup.lookups) /
                          r.lookup.busy_s);
    lookup_p50.push_back(quantile(r.lookup.latency_us, 0.5));
    lookup_p90.push_back(quantile(r.lookup.latency_us, 0.9));
    update_rate.push_back(static_cast<double>(r.commit.messages) /
                          r.commit.span_s);
    commit_p50.push_back(quantile(r.commit.latency_us, 0.5));
    commit_p90.push_back(quantile(r.commit.latency_us, 0.9));
  }
  Report report;
  report.add("setup_s", "s", setup);
  report.add("lookups_per_s", "1/s", lookup_rate);
  report.add("lookup_p50_us", "us", lookup_p50);
  report.add("lookup_p90_us", "us", lookup_p90);
  report.add("updates_per_s", "1/s", update_rate);
  report.add("commit_p50_us", "us", commit_p50);
  report.add("commit_p90_us", "us", commit_p90);
  return report;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

void add_traced_layers(const std::vector<Round>& rounds, Report& report) {
  runtime::RuntimeMetrics sum;
  std::vector<double> skew, service, client_us, ttf1, ttf2, ttf3, flat,
      rebalance, other;
  std::uint64_t pending_max = 0;
  for (const Round& r : rounds) {
    if (!r.traced) continue;
    const runtime::RuntimeMetrics& m = r.metrics;
    sum.lookups_completed += m.lookups_completed;
    sum.diverted += m.diverted;
    sum.miss_returns += m.miss_returns;
    sum.dred_lookups += m.dred_lookups;
    sum.dred_hits += m.dred_hits;
    sum.backpressure_waits += m.backpressure_waits;
    sum.client_stalls += m.client_stalls;
    sum.fills_sent += m.fills_sent;
    sum.fills_dropped_full += m.fills_dropped_full;
    sum.fills_dropped_stale += m.fills_dropped_stale;
    sum.batch_publishes += m.batch_publishes;
    sum.batches_applied += m.batches_applied;
    pending_max = std::max({pending_max, r.commit.pending_max,
                            m.tables_pending});
    skew.push_back(m.skew);
    service.insert(service.end(), r.service_ns_mean.begin(),
                   r.service_ns_mean.end());
    for (const double ns : r.lookup.client_ns) client_us.push_back(ns / 1e3);
    rebalance.push_back(r.rebalance_us);
    for (const obs::TtfTraceEntry& e : r.ttf) {
      ttf1.push_back(e.ttf1_ns / 1e3);
      ttf2.push_back(e.ttf2_ns / 1e3);
      ttf3.push_back(e.ttf3_ns / 1e3);
      flat.push_back(e.flat_ns / 1e3);
    }
    other.insert(other.end(), r.commit.other_us.begin(),
                 r.commit.other_us.end());
  }
  report.add_value("runtime.divert_frac", "ratio",
                   ratio(sum.diverted, sum.lookups_completed));
  report.add_value("runtime.miss_return_frac", "ratio",
                   ratio(sum.miss_returns, sum.lookups_completed));
  report.add_value("runtime.dred_hit_rate", "ratio",
                   ratio(sum.dred_hits, sum.dred_lookups));
  report.add_value("runtime.backpressure_waits", "count",
                   static_cast<double>(sum.backpressure_waits));
  report.add_value("runtime.client_stalls", "count",
                   static_cast<double>(sum.client_stalls));
  report.add("runtime.worker_service_ns_mean", "ns", service);
  report.add_value("runtime.fills_dropped_frac", "ratio",
                   ratio(sum.fills_dropped_full + sum.fills_dropped_stale,
                         sum.fills_sent));
  report.add("runtime.skew", "ratio", skew);
  report.add_quantile("runtime.client_latency_us_p99", "us",
                      std::move(client_us), 0.99);
  report.add("runtime.ttf1_us", "us", ttf1);
  report.add("runtime.ttf2_us", "us", ttf2);
  report.add("runtime.ttf3_us", "us", ttf3);
  report.add("runtime.flat_rebuild_us", "us", flat);
  report.add("runtime.commit_other_us", "us", other);
  report.add("runtime.rebalance_us", "us", rebalance);
  report.add_value("runtime.publishes_per_commit", "ratio",
                   ratio(sum.batch_publishes, sum.batches_applied));
  report.add_value("runtime.tables_pending_max", "count",
                   static_cast<double>(pending_max));
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

void apply_to(trie::BinaryTrie& rib, std::span<const UpdateMsg> updates) {
  for (const UpdateMsg& msg : updates) {
    if (msg.kind == workload::UpdateKind::kAnnounce) {
      rib.insert(msg.prefix, msg.next_hop);
    } else {
      rib.erase(msg.prefix);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) {
    std::cerr << "usage: clue_perfbench --workload <lookup-zipf|update-seq> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--rib-size <routes>] [--rounds <k>] [--git-sha <sha>]\n";
    return 2;
  }

#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  std::cerr << "clue_perfbench: refusing to measure an unoptimized or "
               "sanitized build\n";
  return 4;
#endif

  // Thread budget: chip workers plus the driver thread must fit the CPUs,
  // or the run measures the scheduler.
  constexpr std::size_t kDrivers = 1;
  const std::size_t cpus = usable_cpus();
  std::cout << "threads: workers=" << kWorkers << " drivers=" << kDrivers
            << " nproc=" << cpus << "\n";
  if (kWorkers + kDrivers > cpus) {
    std::cerr << "clue_perfbench: " << kWorkers << " workers + " << kDrivers
              << " driver threads exceed " << cpus << " CPUs\n";
    return 3;
  }

  // ---- inputs, generated before anything is timed ----
  Inputs in;
  workload::RibConfig rib_config;
  rib_config.table_size = opt.rib_size;
  rib_config.seed = derive_seed(opt.seed, 10);
  in.rib = workload::generate_rib(rib_config);

  std::vector<netbase::Prefix> prefixes;
  in.rib.for_each_route([&prefixes](const netbase::Route& route) {
    prefixes.push_back(route.prefix);
  });
  workload::TrafficConfig traffic_config;
  traffic_config.seed = derive_seed(opt.seed, 11);
  traffic_config.zipf_skew = 1.0;
  in.addresses = workload::TrafficGenerator(prefixes, traffic_config)
                     .generate(kAddressCount);

  workload::UpdateConfig update_config;
  update_config.seed = derive_seed(opt.seed, 12);
  in.updates = workload::UpdateGenerator(in.rib, update_config)
                   .generate(opt.rounds * kRoundUpdates);
  in.history =
      std::make_unique<AnswerHistory>(in.rib, in.addresses, in.updates);

  std::printf("inputs: rib=%zu routes fp=%016llx addresses=%zu fp=%016llx "
              "updates=%zu fp=%016llx\n",
              in.rib.size(),
              static_cast<unsigned long long>(perfbench::fingerprint(in.rib)),
              in.addresses.size(),
              static_cast<unsigned long long>(
                  perfbench::fingerprint(in.addresses)),
              in.updates.size(),
              static_cast<unsigned long long>(
                  perfbench::fingerprint(in.updates)));

  // ---- rounds ----
  std::vector<Round> rounds;
  trie::BinaryTrie rib = in.rib;  // the RIB at the next round's base state
  for (std::size_t r = 0; r < opt.rounds; ++r) {
    const std::uint64_t base = r * kRoundUpdates;
    rounds.push_back(run_round(opt, in, rib, base, opt.trace && r % 2 == 1));
    apply_to(rib, std::span<const UpdateMsg>(in.updates.data() + base,
                                             kRoundUpdates));
    // Hand the freed runtime back to the kernel so every round starts
    // from the same resident baseline.
    malloc_trim(0);
  }

  // ---- correctness ----
  std::uint64_t attempted = 0, failed = 0;
  for (const Round& r : rounds) {
    attempted += r.lookup.lookups + r.probe.lookups + r.commit.messages;
    failed += r.lookup.wrong + r.probe.wrong + r.metrics.updates_rejected +
              r.metrics.batches_aborted;
  }

  // ---- host block ----
  const char* sanitizer = "none";
#if defined(__SANITIZE_ADDRESS__)
  sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  sanitizer = "thread";
#endif
#if defined(__clang__)
  const char* compiler = "";  // __VERSION__ names clang itself
#else
  const char* compiler = "gcc ";
#endif
  std::cout << "host: nproc=" << cpus << " compiler=\"" << compiler
            << __VERSION__
            << "\" build=optimized sanitizer=" << sanitizer
            << " git=" << opt.git_sha << " worker_count=" << kWorkers
            << " driver_threads=" << kDrivers << "\n";
  // Validity record, not a target: the driver thread's CPU per round.
  std::cout << "driver_cpu:";
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    std::cout << " r" << r << "=" << rounds[r].cpu.start << "->"
              << rounds[r].cpu.end;
  }
  std::cout << "\n";
  std::cout << "workload=" << opt.workload_name << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " rounds=" << opt.rounds
            << " trace=" << opt.trace << " attempted=" << attempted
            << " failed=" << failed
            << " fail_frac=" << ratio(failed, attempted) << "\n";

  // ---- metrics ----
  Report end_to_end = end_to_end_metrics(rounds, false);
  end_to_end.add_value("peak_rss_mb", "MiB", peak_rss_mb());

  Report result = end_to_end;
  if (opt.trace) {
    const Report traced_e2e = end_to_end_metrics(rounds, true);
    std::cout << "-- end-to-end, untraced rounds --\n";
    end_to_end.print_table(std::cout);
    std::cout << "-- end-to-end, traced rounds --\n";
    traced_e2e.print_table(std::cout);

    result = Report();
    perfbench::measure_layers(in.rib, in.addresses, in.updates, kWorkers,
                              kCoalesceBurst, result);
    add_traced_layers(rounds, result);
    // Tracing overhead per end-to-end metric (set-up is not traced; peak
    // RSS is one figure for the whole process).
    for (const perfbench::Metric& traced_metric : traced_e2e.metrics()) {
      if (traced_metric.name == "setup_s") continue;
      for (const perfbench::Metric& base : end_to_end.metrics()) {
        if (base.name != traced_metric.name) continue;
        result.add_value("bench.trace_overhead." + base.name, "ratio",
                         base.value != 0 ? traced_metric.value / base.value - 1
                                         : 0.0);
      }
    }
    std::cout << "-- per-layer --\n";
  }
  result.print_table(std::cout);

  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << result.json() << "}" << std::endl;
  return 0;
}
