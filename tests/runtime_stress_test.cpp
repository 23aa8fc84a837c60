// LookupRuntime end-to-end correctness: batched lookups against the
// reference BinaryTrie, diversion under skew, 10k interleaved updates
// with exact answers, next hops at and above 2^31 served with DRed on,
// DRed contents equal to foreign stored shapes after a diverting Zipf
// run, a concurrent update+lookup hammer with a version-window oracle,
// epoch-reclamation accounting (also with reclaim() racing async
// commits), and wake-ups of parked threads by every producer.
#include "runtime/lookup_runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "netbase/rng.hpp"
#include "system/clue_system.hpp"
#include "update/rebalancer.hpp"
#include "workload/rib_gen.hpp"
#include "workload/traffic_gen.hpp"
#include "workload/update_gen.hpp"

#include "test_support.hpp"

namespace {

using clue::test_support::make_fib;
using clue::test_support::random_addresses;

using clue::netbase::Ipv4Address;
using clue::netbase::NextHop;
using clue::netbase::Pcg32;
using clue::runtime::LookupRuntime;
using clue::runtime::RuntimeConfig;

TEST(LookupRuntimeTest, BatchLookupsMatchReferenceTrie) {
  const auto fib = make_fib(20'000, 101);
  RuntimeConfig config;
  config.worker_count = 4;
  LookupRuntime runtime(fib, config);

  const auto addresses = random_addresses(20'000, 202);
  for (std::size_t at = 0; at < addresses.size(); at += 1024) {
    const std::size_t n = std::min<std::size_t>(1024, addresses.size() - at);
    const std::span<const Ipv4Address> batch(addresses.data() + at, n);
    const auto hops = runtime.lookup_batch(batch);
    ASSERT_EQ(hops.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hops[i], fib.lookup(batch[i]))
          << "address " << batch[i].to_string();
    }
  }
  const auto m = runtime.metrics();
  EXPECT_EQ(m.lookups_completed, addresses.size());
}

TEST(LookupRuntimeTest, SingleWorkerStillAnswersCorrectly) {
  const auto fib = make_fib(5'000, 303);
  RuntimeConfig config;
  config.worker_count = 1;
  config.fifo_depth = 32;
  LookupRuntime runtime(fib, config);

  const auto addresses = random_addresses(5'000, 404);
  const auto hops = runtime.lookup_batch(addresses);
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    ASSERT_EQ(hops[i], fib.lookup(addresses[i]));
  }
}

TEST(LookupRuntimeTest, SkewedTrafficDivertsAndStaysCorrect) {
  const auto fib = make_fib(20'000, 505);
  RuntimeConfig config;
  config.worker_count = 4;
  config.fifo_depth = 16;  // small FIFOs so the home queue overflows
  LookupRuntime runtime(fib, config);
  ASSERT_FALSE(runtime.boundaries().empty());

  // Every address below the first boundary homes at chip 0: the hot
  // chip saturates and the §III-B rule must divert to peer DReds.
  const std::uint32_t bound = runtime.boundaries().front().value();
  Pcg32 rng(606);
  std::vector<Ipv4Address> addresses;
  addresses.reserve(30'000);
  for (std::size_t i = 0; i < 30'000; ++i) {
    addresses.emplace_back(rng.next_below(bound));
  }
  for (std::size_t at = 0; at < addresses.size(); at += 2048) {
    const std::size_t n = std::min<std::size_t>(2048, addresses.size() - at);
    const std::span<const Ipv4Address> batch(addresses.data() + at, n);
    const auto hops = runtime.lookup_batch(batch);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hops[i], fib.lookup(batch[i]));
    }
  }
  const auto m = runtime.metrics();
  EXPECT_GT(m.diverted, 0u) << "hot chip never overflowed its FIFO";
  EXPECT_GT(m.dred_lookups, 0u);
  // Diverted jobs either hit a DRed or returned home; conservation:
  EXPECT_EQ(m.dred_hits + m.miss_returns, m.dred_lookups);
}

// Satellite requirement: answers match the reference trie across 10k
// interleaved updates. apply() waits for table publication AND DRed
// sync, so between calls the data plane is exactly the control plane.
TEST(LookupRuntimeTest, TenThousandInterleavedUpdatesStayExact) {
  const auto fib = make_fib(10'000, 707);
  RuntimeConfig config;
  config.worker_count = 4;
  LookupRuntime runtime(fib, config);

  clue::workload::UpdateConfig update_config;
  update_config.seed = 808;
  clue::workload::UpdateGenerator updates(fib, update_config);

  Pcg32 rng(909);
  constexpr std::size_t kUpdates = 10'000;
  for (std::size_t u = 0; u < kUpdates; ++u) {
    runtime.apply(updates.next());
    if (u % 8 == 0) {
      std::vector<Ipv4Address> batch;
      batch.reserve(32);
      for (int i = 0; i < 32; ++i) batch.emplace_back(rng.next());
      const auto hops = runtime.lookup_batch(batch);
      const auto& truth = runtime.fib().ground_truth();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_EQ(hops[i], truth.lookup(batch[i]))
            << "update " << u << " address " << batch[i].to_string();
      }
    }
  }
  // Final sweep.
  const auto addresses = random_addresses(20'000, 1010);
  const auto hops = runtime.lookup_batch(addresses);
  const auto& truth = runtime.fib().ground_truth();
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    ASSERT_EQ(hops[i], truth.lookup(addresses[i]));
  }

  // Epoch accounting: with the data plane quiescent, every retired
  // table version must be reclaimable, and none twice.
  runtime.reclaim();
  const auto m = runtime.metrics();
  EXPECT_GT(m.tables_published, 0u);
  EXPECT_EQ(m.tables_pending, 0u);
  EXPECT_EQ(m.tables_reclaimed, m.tables_published);
}

// The tentpole stress: updates land from a control thread while the
// client hammers lookups. Any answer must match the ground truth of
// *some* update version the data plane could have exposed during the
// batch: [updates_completed() before submit, updates_started() after
// completion].
TEST(LookupRuntimeTest, ConcurrentUpdatesAndLookupsWindowedOracle) {
  const auto fib = make_fib(8'000, 1111);
  RuntimeConfig config;
  config.worker_count = 4;
  LookupRuntime runtime(fib, config);

  constexpr std::size_t kUpdates = 600;
  constexpr std::size_t kPool = 2048;
  const auto pool = random_addresses(kPool, 1212);

  // oracles[v][i]: ground-truth answer for pool[i] after v visible
  // updates (v counts non-absorbed updates, matching the runtime's
  // updates_completed counter).
  std::vector<std::vector<NextHop>> oracles(kUpdates + 1);
  auto snapshot_answers = [&pool](const clue::trie::BinaryTrie& t) {
    std::vector<NextHop> answers;
    answers.reserve(pool.size());
    for (const auto address : pool) answers.push_back(t.lookup(address));
    return answers;
  };
  oracles[0] = snapshot_answers(fib);

  std::atomic<bool> done{false};
  std::thread control([&] {
    clue::workload::UpdateConfig update_config;
    update_config.seed = 1313;
    clue::workload::UpdateGenerator updates(fib, update_config);
    std::uint64_t recorded = 0;
    while (recorded < kUpdates) {
      runtime.apply(updates.next());
      const std::uint64_t completed = runtime.updates_completed();
      // Absorbed updates (empty diff) do not advance the counter; the
      // data plane — and therefore the oracle — is unchanged.
      if (completed > recorded) {
        recorded = completed;
        oracles[recorded] = snapshot_answers(runtime.fib().ground_truth());
      }
    }
    done.store(true, std::memory_order_release);
  });

  struct BatchLog {
    std::uint64_t g0;
    std::uint64_t g1;
    std::vector<std::uint32_t> picks;
    std::vector<NextHop> hops;
  };
  std::vector<BatchLog> log;
  Pcg32 rng(1414);
  while (!done.load(std::memory_order_acquire) && log.size() < 1500) {
    BatchLog entry;
    entry.picks.reserve(256);
    std::vector<Ipv4Address> batch;
    batch.reserve(256);
    for (int i = 0; i < 256; ++i) {
      const std::uint32_t pick = rng.next_below(kPool);
      entry.picks.push_back(pick);
      batch.push_back(pool[pick]);
    }
    entry.g0 = runtime.updates_completed();
    entry.hops = runtime.lookup_batch(batch);
    entry.g1 = runtime.updates_started();
    log.push_back(std::move(entry));
  }
  control.join();

  ASSERT_FALSE(log.empty());
  std::size_t checked = 0;
  for (const auto& entry : log) {
    ASSERT_LE(entry.g1, kUpdates);
    for (std::size_t i = 0; i < entry.picks.size(); ++i) {
      bool matched = false;
      for (std::uint64_t v = entry.g0; v <= entry.g1 && !matched; ++v) {
        matched = oracles[v][entry.picks[i]] == entry.hops[i];
      }
      EXPECT_TRUE(matched)
          << "address " << pool[entry.picks[i]].to_string()
          << " answered outside update window [" << entry.g0 << ", "
          << entry.g1 << "]";
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);

  // Quiesce, then every retired version must be reclaimable.
  runtime.reclaim();
  const auto m = runtime.metrics();
  EXPECT_EQ(m.tables_pending, 0u);
  EXPECT_EQ(m.tables_reclaimed, m.tables_published);
}

// Same windowed oracle, but the updates are all hot announces into chip
// 0's range, so boundary migrations run *while* the oracle batches are
// in flight — every intermediate epoch of the migration protocol must
// answer from some version in the window.
TEST(LookupRuntimeTest, SkewedChurnWindowedOracleAcrossRebalances) {
  const auto fib = make_fib(8'000, 1717);
  RuntimeConfig config;
  config.worker_count = 4;
  LookupRuntime runtime(fib, config);
  ASSERT_FALSE(runtime.boundaries().empty());
  const std::uint32_t bound = runtime.boundaries().front().value();

  constexpr std::size_t kUpdates = 600;
  constexpr std::size_t kPool = 2048;
  // Half the pool hot, so migrated entries are constantly looked up.
  std::vector<Ipv4Address> pool = random_addresses(kPool / 2, 1818);
  {
    Pcg32 rng(1819);
    while (pool.size() < kPool) pool.emplace_back(rng.next_below(bound));
  }

  std::vector<std::vector<NextHop>> oracles(kUpdates + 1);
  auto snapshot_answers = [&pool](const clue::trie::BinaryTrie& t) {
    std::vector<NextHop> answers;
    answers.reserve(pool.size());
    for (const auto address : pool) answers.push_back(t.lookup(address));
    return answers;
  };
  oracles[0] = snapshot_answers(fib);

  std::atomic<bool> done{false};
  std::thread control([&] {
    Pcg32 rng(1919);
    std::uint64_t recorded = 0;
    while (recorded < kUpdates) {
      clue::workload::UpdateMsg msg;
      msg.kind = clue::workload::UpdateKind::kAnnounce;
      msg.prefix = clue::netbase::Prefix(
          Ipv4Address(rng.next_below(bound)), 24);
      msg.next_hop = clue::netbase::make_next_hop(1 + rng.next_below(250));
      runtime.apply(msg);
      const std::uint64_t completed = runtime.updates_completed();
      if (completed > recorded) {
        recorded = completed;
        oracles[recorded] = snapshot_answers(runtime.fib().ground_truth());
      }
    }
    done.store(true, std::memory_order_release);
  });

  struct BatchLog {
    std::uint64_t g0;
    std::uint64_t g1;
    std::vector<std::uint32_t> picks;
    std::vector<NextHop> hops;
  };
  std::vector<BatchLog> log;
  Pcg32 rng(2020);
  while (!done.load(std::memory_order_acquire) && log.size() < 1500) {
    BatchLog entry;
    entry.picks.reserve(256);
    std::vector<Ipv4Address> batch;
    batch.reserve(256);
    for (int i = 0; i < 256; ++i) {
      const std::uint32_t pick = rng.next_below(kPool);
      entry.picks.push_back(pick);
      batch.push_back(pool[pick]);
    }
    entry.g0 = runtime.updates_completed();
    entry.hops = runtime.lookup_batch(batch);
    entry.g1 = runtime.updates_started();
    log.push_back(std::move(entry));
  }
  control.join();

  // The whole point: skew crossed the watermark and entries migrated
  // while lookups were being answered.
  const auto m = runtime.metrics();
  EXPECT_GT(m.rebalance_steps, 0u) << "600 hot announces never rebalanced";
  EXPECT_GT(m.entries_migrated, 0u);

  ASSERT_FALSE(log.empty());
  for (const auto& entry : log) {
    ASSERT_LE(entry.g1, kUpdates);
    for (std::size_t i = 0; i < entry.picks.size(); ++i) {
      bool matched = false;
      for (std::uint64_t v = entry.g0; v <= entry.g1 && !matched; ++v) {
        matched = oracles[v][entry.picks[i]] == entry.hops[i];
      }
      EXPECT_TRUE(matched)
          << "address " << pool[entry.picks[i]].to_string()
          << " answered outside update window [" << entry.g0 << ", "
          << entry.g1 << "]";
    }
  }
}

// Every 32-bit next hop is servable: the flat images intern hops, so a
// table whose hops all have the top bit set is answered exactly — home
// lookups, DRed lookups and the fills that carry those routes between
// chips.
TEST(LookupRuntimeTest, HopsAtAndAbove2To31ServedExactlyWithDred) {
  constexpr std::uint32_t kHigh = 0x8000'0000u;
  const auto base = make_fib(20'000, 1701);
  clue::trie::BinaryTrie fib;
  for (const auto& route : base.routes()) {
    fib.insert(route.prefix,
               NextHop{kHigh | clue::netbase::to_index(route.next_hop)});
  }
  RuntimeConfig config;
  config.worker_count = 4;
  config.fifo_depth = 16;  // the hot chip overflows -> diversions
  LookupRuntime runtime(fib, config);

  clue::workload::UpdateConfig update_config;
  update_config.seed = 1702;
  clue::workload::UpdateGenerator updates(fib, update_config);
  const std::uint32_t bound = runtime.boundaries().front().value();
  Pcg32 rng(1703);
  // One lookup round: 4096 addresses on chip 0's range, each answered
  // exactly (the hot chip's ring overflows, so some are diverted).
  const auto lookup_round = [&] {
    const auto& truth = runtime.fib().ground_truth();
    std::vector<Ipv4Address> batch;
    for (int i = 0; i < 4096; ++i) {
      batch.emplace_back(rng.next_below(bound));
    }
    const auto hops = runtime.lookup_batch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(hops[i], truth.lookup(batch[i]))
          << "address " << batch[i].to_string();
    }
  };
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 20; ++i) {
      auto msg = updates.next();
      msg.next_hop = NextHop{kHigh | clue::netbase::to_index(msg.next_hop)};
      runtime.apply(msg);
    }
    lookup_round();
    if (HasFatalFailure()) return;
  }
  // Whether a round diverts or lands a DRed fill depends on thread
  // timing, so more rounds run until both have happened; reaching the
  // cap fails the test below.
  constexpr int kMaxExtraRounds = 500;
  int extra = 0;
  for (; extra < kMaxExtraRounds; ++extra) {
    const auto m = runtime.metrics();
    if (m.diverted > 0 && m.fills_applied > 0) break;
    lookup_round();
    if (HasFatalFailure()) return;
  }
  const auto m = runtime.metrics();
  EXPECT_GT(m.diverted, 0u)
      << "diverted stayed 0 after " << extra << " extra lookup rounds";
  EXPECT_GT(m.fills_applied, 0u)
      << "fills_applied stayed 0 after " << extra << " extra lookup rounds";
}

// The flat image hands DRed fills the exact stored shape: after a
// diverting Zipf run with interleaved updates, every route DRed i holds
// is a route some chip j != i stores — same prefix, same hop.
TEST(LookupRuntimeTest, DredHoldsOnlyForeignStoredShapes) {
  const auto fib = make_fib(20'000, 1801);
  RuntimeConfig config;
  config.worker_count = 4;
  config.fifo_depth = 16;
  LookupRuntime runtime(fib, config);

  // Zipf traffic over chip 0's own prefixes: chip 0 runs hot, overflow
  // diverts to the peers' DReds, and chip 0's hits fill them.
  std::vector<clue::netbase::Prefix> hot;
  for (const auto& route : runtime.chip_routes(0)) hot.push_back(route.prefix);
  clue::workload::TrafficConfig traffic_config;
  traffic_config.seed = 1802;
  clue::workload::TrafficGenerator traffic(hot, traffic_config);
  clue::workload::UpdateConfig update_config;
  update_config.seed = 1803;
  clue::workload::UpdateGenerator updates(fib, update_config);
  for (int round = 0; round < 16; ++round) {
    runtime.lookup_batch(traffic.generate(4096));
    for (int i = 0; i < 16; ++i) runtime.apply(updates.next());
  }
  runtime.stop();

  const auto m = runtime.metrics();
  EXPECT_GT(m.diverted, 0u);
  EXPECT_GT(m.fills_applied, 0u);
  std::vector<std::map<clue::netbase::Prefix, NextHop>> stored(
      runtime.worker_count());
  for (std::size_t j = 0; j < runtime.worker_count(); ++j) {
    for (const auto& route : runtime.chip_routes(j)) {
      stored[j].emplace(route.prefix, route.next_hop);
    }
  }
  std::size_t cached = 0;
  for (std::size_t i = 0; i < runtime.worker_count(); ++i) {
    for (const auto& route : runtime.dred(i)->routes()) {
      ++cached;
      EXPECT_FALSE(stored[i].contains(route.prefix))
          << "DRed " << i << " caches its own " << route.prefix.to_string();
      bool found = false;
      for (std::size_t j = 0; j < runtime.worker_count() && !found; ++j) {
        if (j == i) continue;
        const auto it = stored[j].find(route.prefix);
        found = it != stored[j].end() && it->second == route.next_hop;
      }
      EXPECT_TRUE(found) << "DRed " << i << " holds "
                         << route.prefix.to_string()
                         << ", not a stored shape of any other chip";
    }
  }
  EXPECT_GT(cached, 0u);
}

// Fills travel in per-batch hand-offs: every fill a worker counts as
// sent must reach a peer's DRed once the data plane is quiescent, where
// it is applied, dropped as stale or declined by the doorkeeper (a
// first offer), and the exclusion rule must hold for whole batches as
// it did per fill.
TEST(LookupRuntimeTest, FillAccountingBalancesWhenQuiescent) {
  const auto fib = make_fib(20'000, 1901);
  RuntimeConfig config;
  config.worker_count = 4;
  config.fifo_depth = 16;  // small FIFOs so lookups divert
  LookupRuntime runtime(fib, config);

  // Zipf traffic over every stored prefix: all chips take hits, so every
  // worker produces fills for its three peers.
  std::vector<clue::netbase::Prefix> all;
  for (std::size_t chip = 0; chip < runtime.worker_count(); ++chip) {
    for (const auto& route : runtime.chip_routes(chip)) {
      all.push_back(route.prefix);
    }
  }
  clue::workload::TrafficConfig traffic_config;
  traffic_config.seed = 1902;
  clue::workload::TrafficGenerator traffic(all, traffic_config);
  for (int round = 0; round < 8; ++round) {
    const auto batch = traffic.generate(4096);
    const auto hops = runtime.lookup_batch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(hops[i], fib.lookup(batch[i]));
    }
  }
  // Every batch sent its fills before its completions, so after the
  // last lookup_batch returns, stop() drains each fill ring.
  runtime.stop();

  const auto m = runtime.metrics();
  EXPECT_GT(m.fills_sent, 0u);
  EXPECT_GT(m.diverted, 0u);
  EXPECT_EQ(m.fills_applied + m.fills_dropped_stale + m.fills_declined,
            m.fills_sent);
  EXPECT_GT(m.fills_applied, 0u);
  EXPECT_GT(m.fills_declined, 0u);
  // No commits ran, so no chip's version moved and nothing went stale.
  EXPECT_EQ(m.fills_dropped_stale, 0u);
  for (std::size_t w = 0; w < runtime.worker_count(); ++w) {
    const auto own = runtime.chip_routes(w);
    for (const auto& route : runtime.dred(w)->routes()) {
      EXPECT_FALSE(std::binary_search(
          own.begin(), own.end(), route,
          [](const auto& a, const auto& b) { return a.prefix < b.prefix; }))
          << "DRed " << w << " caches its own " << route.prefix.to_string();
    }
  }
}

TEST(LookupRuntimeTest, ClueSystemRuntimeEntryPointAgrees) {
  const auto fib = make_fib(10'000, 1515);
  clue::system::SystemConfig system_config;
  clue::system::ClueSystem system(fib, system_config);
  const auto runtime = system.runtime();
  ASSERT_EQ(runtime->worker_count(), system.tcam_count());

  Pcg32 rng(1616);
  std::vector<Ipv4Address> batch;
  for (int i = 0; i < 4096; ++i) batch.emplace_back(rng.next());
  const auto hops = runtime->lookup_batch(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(hops[i], system.lookup(batch[i]));
  }
}

// Every producer whose push a caller waits on rings the thread it feeds.
// Before each step the runtime idles long enough for every worker and the
// updater to park, so a missed ring() hangs the step that needed it.
TEST(LookupRuntimeTest, ParkedThreadsWakeForEveryProducer) {
  const auto fib = make_fib(8'000, 1717);
  RuntimeConfig config;
  config.worker_count = 4;
  config.rebalance = false;
  config.update_ring_depth = 64;
  LookupRuntime runtime(fib, config);
  const auto park = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  };

  // Skew chip 0 with hot announces; nothing rebalances them away. Until
  // the first submit() the updater has nothing to apply, so this thread
  // may act as the control role.
  const std::uint32_t bound = runtime.boundaries().front().value();
  Pcg32 rng(1818);
  clue::workload::UpdateMsg hot;
  while (runtime.skew() < clue::update::kSkewWatermark) {
    hot.kind = clue::workload::UpdateKind::kAnnounce;
    hot.prefix = clue::netbase::Prefix(Ipv4Address(rng.next_below(bound)), 24);
    hot.next_hop = clue::netbase::make_next_hop(1 + rng.next_below(250));
    runtime.apply(hot);
  }

  // Client -> job rings (and worker -> peer fill rings).
  park();
  const auto addresses = random_addresses(4'096, 1919);
  const auto hops = runtime.lookup_batch(addresses);
  for (std::size_t i = 0; i < addresses.size(); ++i) {
    ASSERT_EQ(hops[i], runtime.fib().ground_truth().lookup(addresses[i]));
  }

  // Control -> control rings: a withdraw sends a DRed erase sweep. No
  // one waits on it, so it rings no one.
  park();
  hot.kind = clue::workload::UpdateKind::kWithdraw;
  runtime.apply(hot);
  EXPECT_GT(runtime.ttf_trace().back().control_msgs, 0u);

  // Control -> a migration. Its only push is the receiver's DRed erase
  // sweep, which no one waits on either, so it returns with every worker
  // still parked.
  park();
  EXPECT_GT(runtime.rebalance_now(), 0u);

  // submit() -> the updater.
  park();
  ASSERT_TRUE(runtime.submit(clue::test_support::announce("10.9.0.0/16", 9)));
  runtime.flush_updates();
  EXPECT_EQ(runtime.metrics().updates_ingested, 1u);

  // stop() -> everyone.
  park();
  runtime.stop();
  EXPECT_TRUE(runtime.stopped());
}

// reclaim() is public, so a third thread may reclaim while the async
// updater commits: each reclaimed retire bundle parks the flat blocks one
// in-place patch unlinked in its chip's pool while the updater takes
// blocks from that pool for the next patch. Lookups run throughout,
// checked by a windowed oracle over message counts: [messages ingested
// before the batch, messages submitted after it].
TEST(LookupRuntimeTest, ReclaimRacesAsyncCommits) {
  const auto fib = make_fib(8'000, 2121);
  RuntimeConfig config;
  config.worker_count = 4;
  config.update_ring_depth = 64;
  LookupRuntime runtime(fib, config);

  constexpr std::size_t kUpdates = 1'000;
  constexpr std::size_t kPool = 2048;
  const auto pool = random_addresses(kPool, 2222);
  clue::workload::UpdateConfig update_config;
  update_config.seed = 2323;
  clue::workload::UpdateGenerator updates(fib, update_config);
  const auto stream = updates.generate(kUpdates);

  // oracles[k]: ground-truth answers after the stream's first k messages.
  std::vector<std::vector<NextHop>> oracles;
  oracles.reserve(kUpdates + 1);
  auto truth = fib;
  auto snapshot_answers = [&] {
    std::vector<NextHop> answers;
    answers.reserve(pool.size());
    for (const auto address : pool) answers.push_back(truth.lookup(address));
    oracles.push_back(std::move(answers));
  };
  snapshot_answers();
  for (const auto& msg : stream) {
    if (msg.kind == clue::workload::UpdateKind::kAnnounce) {
      truth.insert(msg.prefix, msg.next_hop);
    } else {
      truth.erase(msg.prefix);
    }
    snapshot_answers();
  }

  std::atomic<bool> done{false};
  std::thread submitter([&] {
    // Flushing every few messages keeps commits small, so hundreds of
    // versions retire while the test thread reclaims.
    for (std::size_t i = 0; i < stream.size(); ++i) {
      if (!runtime.submit(stream[i])) break;
      if (i % 4 == 3) runtime.flush_updates();
    }
    runtime.flush_updates();
    done.store(true, std::memory_order_release);
  });

  struct BatchLog {
    std::uint64_t lo;
    std::uint64_t hi;
    std::vector<std::uint32_t> picks;
    std::vector<NextHop> hops;
  };
  std::vector<BatchLog> log;
  std::thread client([&] {
    Pcg32 rng(2424);
    while (!done.load(std::memory_order_acquire) && log.size() < 1500) {
      BatchLog entry;
      std::vector<Ipv4Address> batch;
      for (int i = 0; i < 256; ++i) {
        const std::uint32_t pick = rng.next_below(kPool);
        entry.picks.push_back(pick);
        batch.push_back(pool[pick]);
      }
      entry.lo = runtime.metrics().updates_ingested;
      entry.hops = runtime.lookup_batch(batch);
      entry.hi = runtime.metrics().updates_submitted;
      log.push_back(std::move(entry));
    }
  });

  while (!done.load(std::memory_order_acquire)) {
    runtime.reclaim();
    std::this_thread::yield();
  }
  submitter.join();
  client.join();

  const auto m = runtime.metrics();
  ASSERT_EQ(m.updates_ingested, kUpdates);
  ASSERT_EQ(m.updates_rejected, 0u);  // the oracle assumes none
  EXPECT_GT(m.flat_blocks_recycled, 0u);
  ASSERT_FALSE(log.empty());
  for (const auto& entry : log) {
    for (std::size_t i = 0; i < entry.picks.size(); ++i) {
      bool matched = false;
      for (std::uint64_t k = entry.lo; k <= entry.hi && !matched; ++k) {
        matched = oracles[k][entry.picks[i]] == entry.hops[i];
      }
      EXPECT_TRUE(matched)
          << "address " << pool[entry.picks[i]].to_string()
          << " answered outside message window [" << entry.lo << ", "
          << entry.hi << "]";
    }
  }

  // Quiesce, then every retired version must be reclaimable.
  runtime.reclaim();
  const auto q = runtime.metrics();
  EXPECT_EQ(q.tables_pending, 0u);
  EXPECT_EQ(q.tables_reclaimed, q.tables_published);
}

}  // namespace
