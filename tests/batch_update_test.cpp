// Group-commit correctness: the coalescer's per-prefix fold, and the
// differential guarantee that apply_batch() lands every host
// (ClueSystem, on one chip and on four, and LookupRuntime) in the same
// state a message-at-a-time replay reaches — plus batch-granular overflow
// rollback, publish accounting (one publish per affected chip per
// batch), the async submit() ingress, and a burst-under-traffic
// windowed-oracle stress for TSan.
#include "update/group_commit.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netbase/rng.hpp"
#include "runtime/lookup_runtime.hpp"
#include "system/clue_system.hpp"
#include "tcam/updater.hpp"
#include "workload/rib_gen.hpp"
#include "workload/update_gen.hpp"

#include "test_support.hpp"

namespace clue::update {
namespace {

using test_support::announce;
using test_support::make_fib;
using test_support::random_addresses;
using test_support::withdraw;

using netbase::Ipv4Address;
using netbase::make_next_hop;
using netbase::NextHop;
using netbase::Pcg32;
using netbase::Prefix;
using netbase::Route;
using onrtc::FibOp;
using onrtc::FibOpKind;
using workload::UpdateKind;
using workload::UpdateMsg;

FibOp op(FibOpKind kind, const char* prefix, std::uint32_t hop) {
  return FibOp{kind, Route{*Prefix::parse(prefix), make_next_hop(hop)}};
}

std::vector<UpdateMsg> update_stream(const trie::BinaryTrie& fib,
                                     std::size_t count, std::uint64_t seed) {
  workload::UpdateConfig config;
  config.seed = seed;
  workload::UpdateGenerator generator(fib, config);
  return generator.generate(count);
}

// ---------------------------------------------------------------------------
// coalesce_ops: the per-prefix fold

TEST(CoalesceOps, InsertThenDeleteCancels) {
  const std::vector<FibOp> raw = {op(FibOpKind::kInsert, "10.0.0.0/8", 1),
                                  op(FibOpKind::kDelete, "10.0.0.0/8", 1)};
  CoalesceStats stats;
  const auto merged = coalesce_ops(raw, &stats);
  EXPECT_TRUE(merged.empty());
  EXPECT_EQ(stats.raw_ops, 2u);
  EXPECT_EQ(stats.merged_ops, 0u);
  EXPECT_EQ(stats.cancelled(), 2u);
}

TEST(CoalesceOps, DeleteThenInsertBecomesModify) {
  const std::vector<FibOp> raw = {op(FibOpKind::kDelete, "10.0.0.0/8", 1),
                                  op(FibOpKind::kInsert, "10.0.0.0/8", 7)};
  const auto merged = coalesce_ops(raw);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].kind, FibOpKind::kModify);
  EXPECT_EQ(merged[0].route.next_hop, make_next_hop(7));
}

TEST(CoalesceOps, DeleteThenInsertOfSameHopVanishes) {
  const std::vector<FibOp> raw = {op(FibOpKind::kDelete, "10.0.0.0/8", 1),
                                  op(FibOpKind::kInsert, "10.0.0.0/8", 1)};
  EXPECT_TRUE(coalesce_ops(raw).empty());
}

TEST(CoalesceOps, ModifyModifyLastWriterWins) {
  const std::vector<FibOp> raw = {op(FibOpKind::kModify, "10.0.0.0/8", 2),
                                  op(FibOpKind::kModify, "10.0.0.0/8", 3),
                                  op(FibOpKind::kModify, "10.0.0.0/8", 4)};
  const auto merged = coalesce_ops(raw);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].kind, FibOpKind::kModify);
  EXPECT_EQ(merged[0].route.next_hop, make_next_hop(4));
}

TEST(CoalesceOps, InsertThenModifyIsInsertOfFinalHop) {
  const std::vector<FibOp> raw = {op(FibOpKind::kInsert, "10.0.0.0/8", 1),
                                  op(FibOpKind::kModify, "10.0.0.0/8", 9)};
  const auto merged = coalesce_ops(raw);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].kind, FibOpKind::kInsert);
  EXPECT_EQ(merged[0].route.next_hop, make_next_hop(9));
}

TEST(CoalesceOps, ModifyThenDeleteIsDeleteWithOriginalHop) {
  // The delete op must carry a hop DRed erasure can key on; the fold
  // keeps the burst-initial hop when the first op revealed it.
  const std::vector<FibOp> raw = {op(FibOpKind::kModify, "10.0.0.0/8", 5),
                                  op(FibOpKind::kDelete, "10.0.0.0/8", 5)};
  const auto merged = coalesce_ops(raw);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].kind, FibOpKind::kDelete);
}

TEST(CoalesceOps, DistinctPrefixesKeepFirstTouchOrder) {
  const std::vector<FibOp> raw = {op(FibOpKind::kInsert, "10.0.0.0/8", 1),
                                  op(FibOpKind::kInsert, "20.0.0.0/8", 2),
                                  op(FibOpKind::kModify, "10.0.0.0/8", 3),
                                  op(FibOpKind::kInsert, "30.0.0.0/8", 4)};
  const auto merged = coalesce_ops(raw);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].route.prefix, *Prefix::parse("10.0.0.0/8"));
  EXPECT_EQ(merged[0].route.next_hop, make_next_hop(3));
  EXPECT_EQ(merged[1].route.prefix, *Prefix::parse("20.0.0.0/8"));
  EXPECT_EQ(merged[2].route.prefix, *Prefix::parse("30.0.0.0/8"));
}

// The per-prefix fold as a hash-map pass, kept here as the reference
// coalesce_ops must reproduce: same merged ops, same first-touch order,
// same stats.
std::vector<FibOp> reference_coalesce(std::span<const FibOp> raw,
                                      CoalesceStats& stats) {
  struct Fold {
    Prefix prefix;
    bool initially_present = false;
    bool initial_hop_known = false;
    NextHop initial_hop{};
    bool present = false;
    NextHop hop{};
    NextHop deleted_hop{};
  };
  std::vector<Fold> folds;
  std::unordered_map<Prefix, std::size_t> index;
  for (const auto& op : raw) {
    const auto [it, fresh] = index.try_emplace(op.route.prefix, folds.size());
    if (fresh) {
      Fold fold;
      fold.prefix = op.route.prefix;
      fold.initially_present = op.kind != FibOpKind::kInsert;
      if (op.kind == FibOpKind::kDelete) {
        fold.initial_hop_known = true;
        fold.initial_hop = op.route.next_hop;
      }
      folds.push_back(fold);
    }
    Fold& fold = folds[it->second];
    if (op.kind == FibOpKind::kDelete) {
      fold.present = false;
      fold.deleted_hop = op.route.next_hop;
    } else {
      fold.present = true;
      fold.hop = op.route.next_hop;
    }
  }
  std::vector<FibOp> merged;
  for (const Fold& fold : folds) {
    if (!fold.initially_present && fold.present) {
      merged.push_back(FibOp{FibOpKind::kInsert, Route{fold.prefix, fold.hop}});
    } else if (fold.initially_present && !fold.present) {
      merged.push_back(FibOp{
          FibOpKind::kDelete,
          Route{fold.prefix,
                fold.initial_hop_known ? fold.initial_hop : fold.deleted_hop}});
    } else if (fold.initially_present && fold.present &&
               !(fold.initial_hop_known && fold.initial_hop == fold.hop)) {
      merged.push_back(FibOp{FibOpKind::kModify, Route{fold.prefix, fold.hop}});
    }
  }
  stats.raw_ops = raw.size();
  stats.merged_ops = merged.size();
  return merged;
}

// Random bursts over a small prefix pool, so prefixes repeat: half follow
// per-prefix state (insert only when absent; modify or delete, carrying
// the old hop, only when present), which yields insert->delete cancels,
// delete->insert modifies and modify->delete; the other half draw kind
// and hop freely.
TEST(CoalesceOps, MatchesTheHashMapFoldOnRandomStreams) {
  Pcg32 rng(71);
  std::vector<Prefix> pool;
  for (int i = 0; i < 24; ++i) {
    pool.emplace_back(Ipv4Address(rng.next()), rng.next_below(33));
  }
  for (int burst = 0; burst < 2000; ++burst) {
    const bool stateful = burst % 2 == 0;
    std::vector<bool> present(pool.size());
    std::vector<NextHop> hops(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      present[i] = rng.chance(0.5);
      hops[i] = make_next_hop(1 + rng.next_below(4));
    }
    const std::uint32_t used = 1 + rng.next_below(
                                       static_cast<std::uint32_t>(pool.size()));
    std::vector<FibOp> raw;
    const std::uint32_t length = rng.next_below(40);
    for (std::uint32_t k = 0; k < length; ++k) {
      const std::uint32_t i = rng.next_below(used);
      const NextHop hop = make_next_hop(1 + rng.next_below(4));
      if (!stateful) {
        raw.push_back(FibOp{static_cast<FibOpKind>(rng.next_below(3)),
                            Route{pool[i], hop}});
      } else if (!present[i]) {
        raw.push_back(FibOp{FibOpKind::kInsert, Route{pool[i], hop}});
        present[i] = true;
        hops[i] = hop;
      } else if (rng.chance(0.5)) {
        raw.push_back(FibOp{FibOpKind::kDelete, Route{pool[i], hops[i]}});
        present[i] = false;
      } else {
        raw.push_back(FibOp{FibOpKind::kModify, Route{pool[i], hop}});
        hops[i] = hop;
      }
    }
    CoalesceStats expected_stats;
    const auto expected = reference_coalesce(raw, expected_stats);
    CoalesceStats stats;
    ASSERT_EQ(coalesce_ops(raw, &stats), expected) << "burst " << burst;
    ASSERT_EQ(stats.raw_ops, expected_stats.raw_ops) << "burst " << burst;
    ASSERT_EQ(stats.merged_ops, expected_stats.merged_ops) << "burst " << burst;
  }
}

// ---------------------------------------------------------------------------
// ClueSystem: apply_batch ≡ sequential apply, DReds included

TEST(BatchUpdate, WarmedSystemBatchMatchesSequential) {
  const auto fib = make_fib(5'000, 61);
  // Rebalancing off: drift-watch passes fire at different points of a
  // batched and a sequential replay, and would move different shapes.
  system::SystemConfig config;
  config.rebalance = false;
  system::ClueSystem sequential(fib, config);
  system::ClueSystem batched(fib, config);
  const auto warm = random_addresses(2'000, 62);
  sequential.warm(warm);
  batched.warm(warm);

  const auto stream = update_stream(fib, 2'000, 63);
  for (const auto& msg : stream) {
    try {
      sequential.apply(msg);
    } catch (const tcam::TcamFullError&) {
    }
  }
  for (std::size_t at = 0; at < stream.size(); at += 64) {
    const std::size_t n = std::min<std::size_t>(64, stream.size() - at);
    batched.apply_batch(std::span<const UpdateMsg>(stream.data() + at, n));
  }

  EXPECT_EQ(sequential.updates_rejected(), 0u);
  EXPECT_EQ(batched.updates_rejected(), 0u);
  EXPECT_EQ(sequential.chip_occupancy(), batched.chip_occupancy());
  EXPECT_EQ(sequential.fib().size(), batched.fib().size());
  for (const auto address : random_addresses(20'000, 64)) {
    ASSERT_EQ(sequential.lookup(address), batched.lookup(address))
        << address.to_string();
    ASSERT_EQ(batched.lookup(address),
              batched.fib().ground_truth().lookup(address))
        << address.to_string();
  }
  // DRed agreement on every surviving compressed route.
  std::size_t cached = 0;
  for (std::size_t i = 0; i < batched.tcam_count(); ++i) {
    cached += batched.dred(i).size();
  }
  EXPECT_GT(cached, 0u);
  std::size_t probed = 0;
  for (const auto& route : batched.fib().compressed().routes()) {
    if (++probed > 2'000) break;
    for (std::size_t i = 0; i < batched.tcam_count(); ++i) {
      ASSERT_EQ(sequential.dred(i).contains(route.prefix),
                batched.dred(i).contains(route.prefix))
          << route.prefix.to_string();
    }
  }
}

TEST(BatchUpdate, AnnounceAndWithdrawOfSamePrefixInOneBatch) {
  const auto fib = make_fib(2'000, 71);
  system::ClueSystem host(fib, system::SystemConfig{.tcam_count = 1});
  const auto before_occupied = host.chip(0).route_count();
  const auto truth_before = [&] {
    std::vector<NextHop> hops;
    for (const auto address : random_addresses(4'000, 72)) {
      hops.push_back(host.lookup(address));
    }
    return hops;
  }();

  // A fresh prefix announced and withdrawn inside one burst (a route
  // flap) must leave no trace — and the withdraw's diff cancels the
  // announce's, so the data plane is never written for the pair.
  const std::vector<UpdateMsg> batch = {
      announce("203.0.113.0/24", 9),
      announce("198.51.100.0/24", 8),
      withdraw("203.0.113.0/24"),
      withdraw("198.51.100.0/24"),
  };
  const auto sample =
      host.apply_batch(std::span<const UpdateMsg>(batch));
  EXPECT_EQ(sample.applied, batch.size());
  EXPECT_EQ(sample.rejected, 0u);
  EXPECT_LT(sample.merged_ops, sample.raw_ops);

  EXPECT_EQ(host.chip(0).route_count(), before_occupied);
  EXPECT_EQ(host.fib().ground_truth().lookup(
                Ipv4Address::from_octets(203, 0, 113, 5)),
            fib.lookup(Ipv4Address::from_octets(203, 0, 113, 5)));
  std::size_t i = 0;
  for (const auto address : random_addresses(4'000, 72)) {
    ASSERT_EQ(host.lookup(address), truth_before[i++])
        << address.to_string();
  }
}

TEST(BatchUpdate, WithdrawThenReannounceInOneBatchIsAModify) {
  trie::BinaryTrie fib;
  fib.insert(*Prefix::parse("10.0.0.0/8"), make_next_hop(1));
  fib.insert(*Prefix::parse("99.0.0.0/8"), make_next_hop(2));
  system::ClueSystem host(fib, system::SystemConfig{.tcam_count = 1});

  const std::vector<UpdateMsg> batch = {withdraw("10.0.0.0/8"),
                                        announce("10.0.0.0/8", 5)};
  const auto sample =
      host.apply_batch(std::span<const UpdateMsg>(batch));
  EXPECT_EQ(sample.applied, 2u);
  EXPECT_LE(sample.merged_ops, sample.raw_ops);
  EXPECT_EQ(host.lookup(Ipv4Address::from_octets(10, 1, 2, 3)),
            make_next_hop(5));
  EXPECT_EQ(host.fib().ground_truth().lookup(
                Ipv4Address::from_octets(10, 1, 2, 3)),
            make_next_hop(5));
}

// ---------------------------------------------------------------------------
// Overflow: rollback is exact at batch granularity

TEST(BatchUpdate, OverflowRejectsSuffixAndStaysConsistent) {
  const auto fib = make_fib(2'000, 81);
  system::SystemConfig config{.tcam_count = 1};
  // Barely above the compressed size, so a 600-announce burst must hit
  // the ceiling partway through.
  config.tcam_capacity = onrtc::CompressedFib(fib).size() + 64;
  system::ClueSystem host(fib, config);
  ASSERT_LE(host.fib().size(), config.tcam_capacity);

  // Announce-heavy churn until the TCAM runs out of slots.
  Pcg32 rng(82);
  std::vector<UpdateMsg> batch;
  for (int i = 0; i < 600; ++i) {
    UpdateMsg msg;
    msg.kind = UpdateKind::kAnnounce;
    msg.prefix = Prefix(Ipv4Address(rng.next() & 0xffffff00u), 24);
    msg.next_hop = make_next_hop(1 + rng.next_below(250));
    batch.push_back(msg);
  }
  const auto sample =
      host.apply_batch(std::span<const UpdateMsg>(batch));
  EXPECT_GT(sample.rejected, 0u) << "batch never overflowed the TCAM";
  EXPECT_EQ(sample.applied + sample.rejected, batch.size());
  EXPECT_EQ(host.updates_rejected(), sample.rejected);
  EXPECT_LE(host.chip(0).route_count(), config.tcam_capacity);

  // The committed prefix is installed, the rejected suffix is not, and
  // chip/trie agree everywhere.
  EXPECT_EQ(host.chip(0).route_count(), host.fib().size());
  for (const auto address : random_addresses(20'000, 83)) {
    ASSERT_EQ(host.lookup(address),
              host.fib().ground_truth().lookup(address))
        << address.to_string();
  }
  // The rejected messages form a suffix: every batch message before the
  // first rejected one is visible in the ground truth (last writer wins
  // when the random stream repeated a prefix).
  const auto& truth = host.fib().ground_truth();
  std::vector<std::pair<Prefix, NextHop>> last_writer;
  for (std::size_t i = 0; i < sample.applied; ++i) {
    bool found = false;
    for (auto& [prefix, hop] : last_writer) {
      if (prefix == batch[i].prefix) {
        hop = batch[i].next_hop;
        found = true;
        break;
      }
    }
    if (!found) last_writer.emplace_back(batch[i].prefix, batch[i].next_hop);
  }
  for (const auto& [prefix, hop] : last_writer) {
    const auto stored = truth.find(prefix);
    ASSERT_TRUE(stored.has_value()) << prefix.to_string() << " missing";
    ASSERT_EQ(*stored, hop) << prefix.to_string();
  }

  // The system stays usable: a withdraw frees room again.
  const std::vector<UpdateMsg> relief = {
      UpdateMsg{UpdateKind::kWithdraw, batch[0].prefix, netbase::kNoRoute}};
  const auto after = host.apply_batch(std::span<const UpdateMsg>(relief));
  EXPECT_EQ(after.rejected, 0u);
}

// ---------------------------------------------------------------------------
// ClueSystem: apply_batch ≡ sequential apply across partitioned chips

TEST(BatchUpdate, SystemBatchMatchesSequential) {
  const auto fib = make_fib(8'000, 91);
  system::SystemConfig config;
  system::ClueSystem sequential(fib, config);
  system::ClueSystem batched(fib, config);

  const auto stream = update_stream(fib, 2'000, 92);
  for (const auto& msg : stream) {
    try {
      sequential.apply(msg);
    } catch (const tcam::TcamFullError&) {
    }
  }
  for (std::size_t at = 0; at < stream.size(); at += 128) {
    const std::size_t n = std::min<std::size_t>(128, stream.size() - at);
    batched.apply_batch(std::span<const UpdateMsg>(stream.data() + at, n));
  }

  EXPECT_EQ(sequential.updates_rejected(), 0u);
  EXPECT_EQ(batched.updates_rejected(), 0u);
  for (const auto address : random_addresses(20'000, 93)) {
    ASSERT_EQ(sequential.lookup(address), batched.lookup(address))
        << address.to_string();
    ASSERT_EQ(batched.lookup(address),
              batched.fib().ground_truth().lookup(address))
        << address.to_string();
  }
}

// ---------------------------------------------------------------------------
// LookupRuntime: batch ≡ sequential, publish accounting, async ingress

TEST(BatchUpdate, RuntimeBatchMatchesSequential) {
  const auto fib = make_fib(8'000, 101);
  runtime::RuntimeConfig config;
  config.worker_count = 4;
  runtime::LookupRuntime sequential(fib, config);
  runtime::LookupRuntime batched(fib, config);

  const auto stream = update_stream(fib, 1'500, 102);
  for (const auto& msg : stream) {
    try {
      sequential.apply(msg);
    } catch (const tcam::TcamFullError&) {
    }
  }
  for (std::size_t at = 0; at < stream.size(); at += 96) {
    const std::size_t n = std::min<std::size_t>(96, stream.size() - at);
    batched.apply_batch(std::span<const UpdateMsg>(stream.data() + at, n));
  }

  const auto pool = random_addresses(20'000, 103);
  const auto seq_hops = sequential.lookup_batch(pool);
  const auto bat_hops = batched.lookup_batch(pool);
  const auto& truth = batched.fib().ground_truth();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ASSERT_EQ(seq_hops[i], bat_hops[i]) << pool[i].to_string();
    ASSERT_EQ(bat_hops[i], truth.lookup(pool[i])) << pool[i].to_string();
  }

  // Sequential apply() is apply_batch of one: both paths bump the same
  // batch counters, and publishes never exceed one per affected chip.
  const auto sm = sequential.metrics();
  const auto bm = batched.metrics();
  EXPECT_GT(sm.batches_applied, 0u);
  EXPECT_GT(bm.batches_applied, 0u);
  EXPECT_LT(bm.batches_applied, sm.batches_applied);
  EXPECT_EQ(sm.batch_publishes, sm.tables_published);
  EXPECT_EQ(bm.batch_publishes, bm.tables_published);
  EXPECT_LE(bm.batch_publishes, bm.batches_applied * config.worker_count);
  // Group commit amortizes publishes: far fewer table rebuilds for the
  // same update stream.
  EXPECT_LT(bm.tables_published, sm.tables_published);
}

TEST(BatchUpdate, OneEpochPublishPerAffectedChipPerBatch) {
  const auto fib = make_fib(8'000, 111);
  runtime::RuntimeConfig config;
  config.worker_count = 4;
  runtime::LookupRuntime runtime(fib, config);

  const auto stream = update_stream(fib, 256, 112);
  const auto before = runtime.metrics();
  const auto sample =
      runtime.apply_batch(std::span<const UpdateMsg>(stream));
  const auto after = runtime.metrics();

  ASSERT_GT(sample.applied, 0u);
  EXPECT_EQ(after.batches_applied - before.batches_applied, 1u);
  const std::uint64_t publishes =
      after.batch_publishes - before.batch_publishes;
  EXPECT_GE(publishes, 1u);
  EXPECT_LE(publishes, config.worker_count);
  EXPECT_EQ(after.tables_published - before.tables_published, publishes);

  // The trace entry for the batch agrees with the counters.
  const auto trace = runtime.ttf_trace();
  ASSERT_FALSE(trace.empty());
  const auto& entry = trace.back();
  EXPECT_EQ(entry.batch_size, stream.size());
  EXPECT_EQ(entry.chips_touched, publishes);
  EXPECT_GE(entry.ops_raw, entry.ops_merged);
  EXPECT_EQ(after.batch_ops_raw - before.batch_ops_raw, entry.ops_raw);
  EXPECT_EQ(after.batch_ops_merged - before.batch_ops_merged,
            entry.ops_merged);
}

TEST(BatchUpdate, AsyncSubmitIngressDrainsExactly) {
  const auto fib = make_fib(8'000, 121);
  runtime::RuntimeConfig async_config;
  async_config.worker_count = 4;
  // Smaller than the stream: the submitter must block on room.
  async_config.update_ring_depth = 256;
  runtime::LookupRuntime async_runtime(fib, async_config);

  runtime::RuntimeConfig sync_config;
  sync_config.worker_count = 4;
  runtime::LookupRuntime sync_runtime(fib, sync_config);

  const auto stream = update_stream(fib, 2'000, 122);
  for (const auto& msg : stream) {
    ASSERT_TRUE(async_runtime.submit(msg));
    try {
      sync_runtime.apply(msg);
    } catch (const tcam::TcamFullError&) {
    }
  }
  async_runtime.flush_updates();

  const auto m = async_runtime.metrics();
  EXPECT_EQ(m.updates_submitted, stream.size());
  EXPECT_EQ(m.updates_ingested, stream.size());
  EXPECT_EQ(m.updates_rejected, 0u);
  EXPECT_GT(m.batches_applied, 0u);

  const auto pool = random_addresses(20'000, 123);
  const auto async_hops = async_runtime.lookup_batch(pool);
  const auto sync_hops = sync_runtime.lookup_batch(pool);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    ASSERT_EQ(async_hops[i], sync_hops[i]) << pool[i].to_string();
  }
}

// The group-commit stress (TSan target): bursts land through
// apply_batch() while a client hammers lookups. A batch commits as ONE
// table transition per chip, so every answer must match a *batch
// boundary* state — an oracle snapshot taken at some completed-update
// count inside [updates_completed() before, updates_started() after].
TEST(BatchUpdate, ConcurrentBurstsWindowedOracle) {
  const auto fib = make_fib(8'000, 131);
  runtime::RuntimeConfig config;
  config.worker_count = 4;
  runtime::LookupRuntime runtime(fib, config);

  constexpr std::size_t kUpdates = 600;
  constexpr std::size_t kBurst = 16;
  constexpr std::size_t kPool = 2048;
  const auto pool = random_addresses(kPool, 132);

  // oracles[v]: answers after v visible updates. Only batch-boundary
  // counts are filled — intermediate counts are unobservable by design.
  std::vector<std::vector<NextHop>> oracles(kUpdates + 1);
  auto snapshot_answers = [&pool](const trie::BinaryTrie& t) {
    std::vector<NextHop> answers;
    answers.reserve(pool.size());
    for (const auto address : pool) answers.push_back(t.lookup(address));
    return answers;
  };
  oracles[0] = snapshot_answers(fib);

  std::atomic<bool> done{false};
  std::thread control([&] {
    workload::UpdateConfig update_config;
    update_config.seed = 133;
    workload::UpdateGenerator updates(fib, update_config);
    std::uint64_t recorded = 0;
    while (recorded < kUpdates) {
      const auto burst = updates.generate(kBurst);
      runtime.apply_batch(std::span<const UpdateMsg>(burst));
      const std::uint64_t completed = runtime.updates_completed();
      if (completed > recorded) {
        recorded = completed;
        if (recorded <= kUpdates) {
          oracles[recorded] =
              snapshot_answers(runtime.fib().ground_truth());
        }
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
  Pcg32 rng(134);
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
  for (const auto& entry : log) {
    for (std::size_t i = 0; i < entry.picks.size(); ++i) {
      bool matched = false;
      const std::uint64_t hi = std::min<std::uint64_t>(entry.g1, kUpdates);
      for (std::uint64_t v = entry.g0; v <= hi && !matched; ++v) {
        if (oracles[v].empty()) continue;  // mid-batch count: unobservable
        matched = oracles[v][entry.picks[i]] == entry.hops[i];
      }
      EXPECT_TRUE(matched)
          << "address " << pool[entry.picks[i]].to_string()
          << " answered outside batch window [" << entry.g0 << ", "
          << entry.g1 << "]";
    }
  }

  runtime.reclaim();
  const auto m = runtime.metrics();
  EXPECT_EQ(m.tables_pending, 0u);
  EXPECT_EQ(m.tables_reclaimed, m.tables_published);
}

// Async variant of the stress: submit() from a control thread while the
// lookup client runs. Exercises the updater thread's adaptive windows
// under contention; exactness is checked at the flush barrier.
TEST(BatchUpdate, ConcurrentAsyncSubmitUnderTraffic) {
  const auto fib = make_fib(8'000, 141);
  runtime::RuntimeConfig config;
  config.worker_count = 4;
  config.update_ring_depth = 512;
  runtime::LookupRuntime runtime(fib, config);

  constexpr std::size_t kUpdates = 2'000;
  const auto pool = random_addresses(2'048, 142);

  std::atomic<bool> done{false};
  std::thread control([&] {
    workload::UpdateConfig update_config;
    update_config.seed = 143;
    workload::UpdateGenerator updates(fib, update_config);
    for (std::size_t i = 0; i < kUpdates; ++i) {
      ASSERT_TRUE(runtime.submit(updates.next()));
    }
    runtime.flush_updates();
    done.store(true, std::memory_order_release);
  });

  Pcg32 rng(144);
  while (!done.load(std::memory_order_acquire)) {
    std::vector<Ipv4Address> batch;
    batch.reserve(128);
    for (int i = 0; i < 128; ++i) batch.push_back(pool[rng.next_below(2'048)]);
    const auto hops = runtime.lookup_batch(batch);
    ASSERT_EQ(hops.size(), batch.size());
  }
  control.join();

  const auto m = runtime.metrics();
  EXPECT_EQ(m.updates_submitted, kUpdates);
  EXPECT_EQ(m.updates_ingested, kUpdates);

  // Quiescent: the data plane answers exactly from the final trie.
  const auto& truth = runtime.fib().ground_truth();
  const auto sweep = random_addresses(20'000, 145);
  const auto hops = runtime.lookup_batch(sweep);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    ASSERT_EQ(hops[i], truth.lookup(sweep[i])) << sweep[i].to_string();
  }
}

// Burst soak (ci/check.sh burst-soak stage runs this under TSan with
// CLUE_SOAK_UPDATES scaling the stream): sustained bursty churn through
// the async ingress while a lookup client hammers the data plane. The
// invariants checked are exactness at the flush barrier, ingress
// conservation (submitted == ingested), and epoch-reclaim accounting.

std::size_t soak_updates() {
  if (const char* env = std::getenv("CLUE_SOAK_UPDATES")) {
    const auto parsed = std::strtoull(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 10'000;
}

TEST(BurstSoakTest, SustainedBurstsUnderTrafficStayExact) {
  const std::size_t kUpdates = soak_updates();
  const auto fib = make_fib(8'000, 151);
  runtime::RuntimeConfig config;
  config.worker_count = 4;
  config.update_ring_depth = 1024;
  runtime::LookupRuntime runtime(fib, config);

  const auto pool = random_addresses(2'048, 152);
  std::atomic<bool> done{false};
  std::thread control([&] {
    workload::UpdateConfig update_config;
    update_config.seed = 153;
    workload::UpdateGenerator updates(fib, update_config);
    std::size_t sent = 0;
    Pcg32 rng(154);
    while (sent < kUpdates) {
      // Bursty arrival: a flood of submits, then a checkpoint flush
      // every few thousand so exactness is probed mid-soak too.
      const std::size_t burst =
          std::min<std::size_t>(1 + rng.next_below(512), kUpdates - sent);
      for (std::size_t i = 0; i < burst; ++i) {
        ASSERT_TRUE(runtime.submit(updates.next()));
      }
      sent += burst;
      if (sent % 4'096 < burst) runtime.flush_updates();
    }
    runtime.flush_updates();
    done.store(true, std::memory_order_release);
  });

  Pcg32 rng(155);
  std::uint64_t looked_up = 0;
  while (!done.load(std::memory_order_acquire)) {
    std::vector<Ipv4Address> batch;
    batch.reserve(256);
    for (int i = 0; i < 256; ++i) batch.push_back(pool[rng.next_below(2'048)]);
    const auto hops = runtime.lookup_batch(batch);
    ASSERT_EQ(hops.size(), batch.size());
    looked_up += hops.size();
  }
  control.join();
  EXPECT_GT(looked_up, 0u);

  const auto m = runtime.metrics();
  EXPECT_EQ(m.updates_submitted, kUpdates);
  EXPECT_EQ(m.updates_ingested, kUpdates);

  const auto& truth = runtime.fib().ground_truth();
  const auto sweep = random_addresses(20'000, 156);
  const auto hops = runtime.lookup_batch(sweep);
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    ASSERT_EQ(hops[i], truth.lookup(sweep[i])) << sweep[i].to_string();
  }

  runtime.reclaim();
  const auto quiesced = runtime.metrics();
  EXPECT_EQ(quiesced.tables_pending, 0u);
  EXPECT_EQ(quiesced.tables_reclaimed, quiesced.tables_published);
}

}  // namespace
}  // namespace clue::update
