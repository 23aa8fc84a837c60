// Microbenchmarks (google-benchmark): the software costs behind TTF1 and
// the offline compression pass — trie update, incremental ONRTC update
// (warm and cache-cold, alone and through a one-message group commit),
// full compression, and LPM lookup throughput — plus the DRed store's
// probe and fill costs.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <vector>

#include "netbase/rng.hpp"
#include "onrtc/compressed_fib.hpp"
#include "engine/dred.hpp"
#include "onrtc/onrtc.hpp"
#include "rrcme/rrc_me.hpp"
#include "partition/partition.hpp"
#include "update/chip_set.hpp"
#include "update/group_commit.hpp"
#include "workload/rib_gen.hpp"
#include "workload/traffic_gen.hpp"
#include "workload/update_gen.hpp"

namespace {

clue::trie::BinaryTrie make_fib(std::size_t size) {
  clue::workload::RibConfig config;
  config.table_size = size;
  config.seed = 42;
  return clue::workload::generate_rib(config);
}

void BM_TrieLookup(benchmark::State& state) {
  const auto fib = make_fib(static_cast<std::size_t>(state.range(0)));
  clue::netbase::Pcg32 rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fib.lookup(clue::netbase::Ipv4Address(rng.next())));
  }
}
BENCHMARK(BM_TrieLookup)->Arg(10'000)->Arg(100'000);

// Manually timed, like run_incremental_onrtc below: the message
// generator runs off the clock.
void BM_TrieUpdate_Plain(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  auto fib = make_fib(static_cast<std::size_t>(state.range(0)));
  clue::workload::UpdateConfig config;
  config.seed = 9;
  clue::workload::UpdateGenerator updates(fib, config);
  for (auto _ : state) {
    const auto msg = updates.next();
    const auto start = Clock::now();
    if (msg.kind == clue::workload::UpdateKind::kAnnounce) {
      fib.insert(msg.prefix, msg.next_hop);
    } else {
      fib.erase(msg.prefix);
    }
    state.SetIterationTime(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
}
BENCHMARK(BM_TrieUpdate_Plain)->Arg(100'000)->UseManualTime();

// Writes one byte per cache line of `buffer`, evicting that much of the
// tries' hot paths the way a commit's lookups and flat patches do
// between messages in the runtime.
void evict(std::vector<char>& buffer) {
  for (std::size_t i = 0; i < buffer.size(); i += 64) ++buffer[i];
  benchmark::ClobberMemory();
}
constexpr std::size_t kEvictBytes = 256 * 1024;

// One ONRTC diff per message into a reused op buffer. With `cold`, 256 KiB
// are evicted between messages. Manually timed, like
// BM_BatchTxn_OneMessageCold: the message generator and the eviction run
// off the clock, so only the diff is timed.
void run_incremental_onrtc(benchmark::State& state, bool cold) {
  using Clock = std::chrono::steady_clock;
  const auto fib = make_fib(static_cast<std::size_t>(state.range(0)));
  clue::onrtc::CompressedFib compressed(fib);
  clue::workload::UpdateConfig config;
  config.seed = 9;
  clue::workload::UpdateGenerator updates(fib, config);
  std::vector<char> scratch(kEvictBytes);
  std::vector<clue::onrtc::FibOp> ops;
  for (auto _ : state) {
    if (cold) evict(scratch);
    const auto msg = updates.next();
    ops.clear();
    const auto start = Clock::now();
    if (msg.kind == clue::workload::UpdateKind::kAnnounce) {
      benchmark::DoNotOptimize(
          compressed.announce(msg.prefix, msg.next_hop, ops));
    } else {
      benchmark::DoNotOptimize(compressed.withdraw(msg.prefix, ops));
    }
    state.SetIterationTime(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
}

void BM_TrieUpdate_IncrementalOnrtc(benchmark::State& state) {
  run_incremental_onrtc(state, false);
}
BENCHMARK(BM_TrieUpdate_IncrementalOnrtc)
    ->Arg(100'000)
    ->Arg(400'000)
    ->UseManualTime();

void BM_TrieUpdate_IncrementalOnrtcCold(benchmark::State& state) {
  run_incremental_onrtc(state, true);
}
BENCHMARK(BM_TrieUpdate_IncrementalOnrtcCold)->Arg(400'000)->UseManualTime();

// One message per group commit, cache-cold: the ONRTC diff through
// update::BatchTxn (journal, prior hop) plus admission (coalescing and
// planning) against a one-chip update::ChipSet of unbounded capacity, its
// chip an empty flat image. The image stores no shapes, so deletes and
// modifies plan no chip work; only the control-plane side of a commit is
// timed. The 256 KiB
// eviction runs outside the manually timed span: only the transaction is
// on the clock.
void BM_BatchTxn_OneMessageCold(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const auto fib = make_fib(static_cast<std::size_t>(state.range(0)));
  clue::onrtc::CompressedFib compressed(fib);
  clue::workload::UpdateConfig config;
  config.seed = 9;
  clue::workload::UpdateGenerator updates(fib, config);
  clue::partition::PartitionResult one_chip;
  one_chip.buckets.resize(1);
  clue::update::ChipSet chips(one_chip,
                              std::numeric_limits<std::size_t>::max());
  std::vector<char> scratch(kEvictBytes);
  for (auto _ : state) {
    evict(scratch);
    const auto msg = updates.next();
    const auto start = Clock::now();
    clue::update::BatchTxn txn(compressed, {&msg, 1});
    benchmark::DoNotOptimize(txn.admit(chips));
    state.SetIterationTime(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
}
BENCHMARK(BM_BatchTxn_OneMessageCold)->Arg(400'000)->UseManualTime();

void BM_FullCompression(benchmark::State& state) {
  const auto fib = make_fib(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(clue::onrtc::compress(fib));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fib.size()));
}
BENCHMARK(BM_FullCompression)->Arg(100'000)->Arg(400'000)
    ->Unit(benchmark::kMillisecond);

void BM_DredLookup(benchmark::State& state) {
  clue::engine::DredStore dred(static_cast<std::size_t>(state.range(0)));
  clue::netbase::Pcg32 rng(13);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    dred.insert(clue::netbase::Route{
        clue::netbase::Prefix(clue::netbase::Ipv4Address(rng.next()), 24),
        clue::netbase::make_next_hop(1)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dred.lookup(clue::netbase::Ipv4Address(rng.next())));
  }
}
BENCHMARK(BM_DredLookup)->Arg(1024)->Arg(16384);

// Overlapping /8-/32 routes probed by a hit-heavy Zipf stream over the
// cached prefixes: exercises the level-2/3 paint blocks and the LRU
// promotion on every hit, which BM_DredLookup's random misses do not.
void BM_DredLookupMixed(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  clue::engine::DredStore dred(capacity);
  clue::netbase::Pcg32 rng(19);
  while (dred.size() < capacity) {
    // Four /8s, so short routes cover longer ones.
    const std::uint32_t bits =
        ((10u + rng.next_below(4)) << 24) | (rng.next() & 0x00FFFFFFu);
    dred.insert(clue::netbase::Route{
        clue::netbase::Prefix(clue::netbase::Ipv4Address(bits),
                              8 + rng.next_below(25)),
        clue::netbase::make_next_hop(1 + rng.next_below(16))});
  }
  clue::workload::TrafficConfig traffic_config;
  traffic_config.seed = 23;
  clue::workload::TrafficGenerator traffic(dred.contents(), traffic_config);
  const auto addresses = traffic.generate(std::size_t{1} << 16);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dred.lookup(addresses[next]));
    next = (next + 1) & (addresses.size() - 1);
  }
  state.counters["hit_rate"] = dred.stats().hit_rate();
}
BENCHMARK(BM_DredLookupMixed)->Arg(1024)->Arg(16384);

void BM_DredInsertEvict(benchmark::State& state) {
  clue::engine::DredStore dred(1024);
  clue::netbase::Pcg32 rng(17);
  for (auto _ : state) {
    dred.insert(clue::netbase::Route{
        clue::netbase::Prefix(clue::netbase::Ipv4Address(rng.next()), 24),
        clue::netbase::make_next_hop(1)});
  }
}
BENCHMARK(BM_DredInsertEvict);

// Per-fill cost of one Zipf(1.0) stream of /24 fills over 131072
// prefixes into a 1024-entry store, through insert (arg 0) and through
// the doorkeeper's offer (arg 1): a stream whose tail is offered once
// evicts on nearly every insert, while offer declines first offers.
void BM_DredOfferZipf(benchmark::State& state) {
  constexpr std::size_t kPrefixes = std::size_t{1} << 17;
  constexpr std::size_t kStream = std::size_t{1} << 20;
  std::vector<clue::netbase::Route> routes;
  routes.reserve(kPrefixes);
  for (std::uint32_t rank = 0; rank < kPrefixes; ++rank) {
    // An odd multiplier permutes the 24-bit /24 numbers, so the popular
    // prefixes spread over the address space.
    const std::uint32_t slash24 = (rank * 0x9E3779B1u) & 0xFFFFFFu;
    routes.push_back(clue::netbase::Route{
        clue::netbase::Prefix(clue::netbase::Ipv4Address(slash24 << 8), 24),
        clue::netbase::make_next_hop(1 + rank % 16)});
  }
  const clue::netbase::ZipfSampler zipf(kPrefixes, 1.0);
  clue::netbase::Pcg32 rng(23);
  std::vector<std::uint32_t> stream(kStream);
  for (auto& rank : stream) rank = static_cast<std::uint32_t>(zipf.sample(rng));

  const bool via_offer = state.range(0) != 0;
  clue::engine::DredStore dred(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& route = routes[stream[i++ & (kStream - 1)]];
    if (via_offer) {
      benchmark::DoNotOptimize(dred.offer(route));
    } else {
      dred.insert(route);
    }
  }
  const auto fills = static_cast<double>(state.iterations());
  state.counters["evictions_per_fill"] =
      static_cast<double>(dred.stats().evictions) / fills;
  state.counters["declined_per_fill"] =
      static_cast<double>(dred.stats().declined) / fills;
}
BENCHMARK(BM_DredOfferZipf)->ArgName("offer")->Arg(0)->Arg(1);

void BM_RrcMeExpansion(benchmark::State& state) {
  const auto fib = make_fib(100'000);
  clue::netbase::Pcg32 rng(11);
  // Sample addresses that actually have routes so the walk is realistic.
  const auto routes = fib.routes();
  for (auto _ : state) {
    const auto& route = routes[rng.next_below(
        static_cast<std::uint32_t>(routes.size()))];
    benchmark::DoNotOptimize(
        clue::rrcme::minimal_expansion(fib, route.prefix.range_low()));
  }
}
BENCHMARK(BM_RrcMeExpansion);

}  // namespace

BENCHMARK_MAIN();
