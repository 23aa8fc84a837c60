// The shared commit transaction at the capacity edge: one input through
// a 1-chip ClueSystem, a 2-chip ClueSystem and a 2-worker LookupRuntime
// must be admitted, shed and installed identically — the hosts run one
// exact admission rule — every host must reject a capacity below its
// initial share before building anything, and the system's DRed modify
// sync must not promote the entry in LRU order.
#include "update/group_commit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "netbase/rng.hpp"
#include "runtime/lookup_runtime.hpp"
#include "system/clue_system.hpp"

#include "test_support.hpp"

namespace clue::update {
namespace {

using test_support::announce;
using test_support::withdraw;

using netbase::Ipv4Address;
using netbase::make_next_hop;
using netbase::Pcg32;
using netbase::Prefix;
using netbase::Route;
using workload::UpdateKind;
using workload::UpdateMsg;

// Eight disjoint routes. The even partition gives each chip four:
// chip 0 everything below 100.0.0.0, chip 1 the rest.
trie::BinaryTrie edge_fib() {
  trie::BinaryTrie fib;
  fib.insert(*Prefix::parse("10.0.0.0/25"), make_next_hop(1));
  fib.insert(*Prefix::parse("10.0.0.128/25"), make_next_hop(2));
  fib.insert(*Prefix::parse("20.0.0.0/8"), make_next_hop(3));
  fib.insert(*Prefix::parse("30.0.0.0/8"), make_next_hop(4));
  fib.insert(*Prefix::parse("100.0.0.0/8"), make_next_hop(5));
  fib.insert(*Prefix::parse("110.0.0.0/8"), make_next_hop(6));
  fib.insert(*Prefix::parse("120.0.0.0/8"), make_next_hop(7));
  fib.insert(*Prefix::parse("200.0.0.0/8"), make_next_hop(8));
  return fib;
}

constexpr std::size_t kRoutes = 8;
constexpr std::size_t kPerChip = 4;

/// The three hosts over edge_fib(), rebalancer off, each with `slack`
/// free entries on every chip. The 1-chip system's chip holds both
/// partitions, so its capacity is the whole table plus the same slack:
/// every host then has the same room on the chip an input lands on.
struct Hosts {
  explicit Hosts(std::size_t slack)
      : single(edge_fib(), single_config(slack)),
        system(edge_fib(), system_config(slack)),
        runtime(edge_fib(), runtime_config(slack)) {}

  static system::SystemConfig single_config(std::size_t slack) {
    return {.tcam_count = 1, .tcam_capacity = kRoutes + slack};
  }
  static system::SystemConfig system_config(std::size_t slack) {
    system::SystemConfig config;
    config.tcam_count = 2;
    config.tcam_capacity = kPerChip + slack;
    config.rebalance = false;
    return config;
  }
  static runtime::RuntimeConfig runtime_config(std::size_t slack) {
    runtime::RuntimeConfig config;
    config.worker_count = 2;
    config.chip_capacity = kPerChip + slack;
    config.rebalance = false;
    return config;
  }

  /// Applies `batch` on every host and checks they agree on it.
  void apply_batch(std::span<const UpdateMsg> batch) {
    const auto p = single.apply_batch(batch);
    const auto s = system.apply_batch(batch);
    const auto r = runtime.apply_batch(batch);
    EXPECT_EQ(p.applied, s.applied);
    EXPECT_EQ(p.applied, r.applied);
    EXPECT_EQ(p.rejected, s.rejected);
    EXPECT_EQ(p.rejected, r.rejected);
    last = p;
  }

  /// Same state everywhere: one compressed table, installed entry for
  /// entry (chip 1's inputs never straddle the boundary), and every
  /// answer equal to the ground truth.
  void expect_identical() {
    const auto routes = single.fib().compressed().routes();
    EXPECT_EQ(system.fib().compressed().routes(), routes);
    EXPECT_EQ(runtime.fib().compressed().routes(), routes);
    EXPECT_EQ(single.chip(0).stored_within(Prefix()), routes);
    std::vector<Route> system_entries;
    for (std::size_t i = 0; i < system.tcam_count(); ++i) {
      const auto chip = system.chip(i).stored_within(Prefix());
      system_entries.insert(system_entries.end(), chip.begin(), chip.end());
    }
    EXPECT_EQ(system_entries, routes);
    EXPECT_EQ(runtime.chip_occupancy(), system.chip_occupancy());
    EXPECT_EQ(single.updates_rejected(), system.updates_rejected());
    EXPECT_EQ(single.updates_rejected(), runtime.metrics().updates_rejected);

    Pcg32 rng(7);
    std::vector<Ipv4Address> sweep;
    for (const auto& route : routes) {
      sweep.push_back(route.prefix.range_low());
      sweep.push_back(route.prefix.range_high());
    }
    for (int i = 0; i < 4'000; ++i) sweep.emplace_back(rng.next());
    const auto runtime_hops = runtime.lookup_batch(sweep);
    const auto& truth = single.fib().ground_truth();
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const auto expected = truth.lookup(sweep[i]);
      ASSERT_EQ(single.lookup(sweep[i]), expected) << sweep[i].to_string();
      ASSERT_EQ(system.lookup(sweep[i]), expected) << sweep[i].to_string();
      ASSERT_EQ(runtime_hops[i], expected) << sweep[i].to_string();
    }
  }

  system::ClueSystem single;
  system::ClueSystem system;
  runtime::LookupRuntime runtime;
  BatchTtfSample last;
};

TEST(CommitTxn, MergingAnnounceFitsBrimFullChips) {
  Hosts hosts(0);
  ASSERT_EQ(hosts.system.chip_occupancy(),
            (std::vector<std::size_t>{kPerChip, kPerChip}));
  // The two /25s merge: insert the /24, delete both /25s — one entry
  // fewer, so it fits a full chip even though it inserts.
  const std::vector<UpdateMsg> batch = {announce("10.0.0.128/25", 1)};
  hosts.apply_batch(batch);
  EXPECT_EQ(hosts.last.applied, 1u);
  EXPECT_EQ(hosts.last.rejected, 0u);
  EXPECT_EQ(hosts.single.chip(0).route_count(), kRoutes - 1);
  EXPECT_EQ(hosts.single.lookup(Ipv4Address::from_octets(10, 0, 0, 200)),
            make_next_hop(1));
  hosts.expect_identical();

  // apply() is apply_batch() of one: it agrees too, and throws only on a
  // real overflow (chip 0 is full again after the split below).
  hosts.single.apply(announce("10.0.0.128/25", 2));
  hosts.system.apply(announce("10.0.0.128/25", 2));
  hosts.runtime.apply(announce("10.0.0.128/25", 2));
  hosts.expect_identical();
  const auto overflow = announce("40.0.0.0/8", 9);
  EXPECT_THROW(hosts.single.apply(overflow), tcam::TcamFullError);
  EXPECT_THROW(hosts.system.apply(overflow), tcam::TcamFullError);
  EXPECT_THROW(hosts.runtime.apply(overflow), tcam::TcamFullError);
  hosts.expect_identical();
}

TEST(CommitTxn, WithdrawAndAnnounceInOneBatchFitBrimFullChips) {
  Hosts hosts(0);
  // One prefix withdrawn and re-announced: a net modify.
  const std::vector<UpdateMsg> same = {withdraw("20.0.0.0/8"),
                                       announce("20.0.0.0/8", 9)};
  hosts.apply_batch(same);
  EXPECT_EQ(hosts.last.applied, 2u);
  EXPECT_EQ(hosts.last.rejected, 0u);
  hosts.expect_identical();

  // One prefix withdrawn, another announced on the same chip: the delete
  // frees the slot the insert takes.
  const std::vector<UpdateMsg> swap = {withdraw("30.0.0.0/8"),
                                       announce("40.0.0.0/8", 9)};
  hosts.apply_batch(swap);
  EXPECT_EQ(hosts.last.applied, 2u);
  EXPECT_EQ(hosts.last.rejected, 0u);
  EXPECT_EQ(hosts.single.chip(0).route_count(), kRoutes);
  hosts.expect_identical();
}

TEST(CommitTxn, OverflowShedsTheSameSuffixOnEveryHost) {
  Hosts hosts(64);
  // Announces above chip 1's lowest route: fresh /24s (one entry each)
  // and /24s that split 200.0.0.0/8 (many entries each).
  Pcg32 rng(11);
  std::vector<UpdateMsg> batch;
  for (int i = 0; i < 600; ++i) {
    const std::uint32_t base = 0x96000000u;  // 150.0.0.0
    UpdateMsg msg;
    msg.kind = UpdateKind::kAnnounce;
    msg.prefix = Prefix(
        Ipv4Address((base + rng.next_below(0xffffffffu - base)) & ~0xffu),
        24);
    msg.next_hop = make_next_hop(1 + rng.next_below(250));
    batch.push_back(msg);
  }
  hosts.apply_batch(batch);
  EXPECT_GT(hosts.last.applied, 0u);
  EXPECT_GT(hosts.last.rejected, 0u) << "batch never overflowed";
  EXPECT_EQ(hosts.last.applied + hosts.last.rejected, batch.size());
  EXPECT_LE(hosts.single.chip(0).route_count(), kRoutes + 64);
  hosts.expect_identical();
}

// A capacity below the share one chip must hold from the start: every
// host rejects it before building any chip, with the same exception
// naming both sizes.
template <typename Build>
void expect_rejected_up_front(Build build, std::size_t capacity,
                              std::size_t share) {
  try {
    build();
    ADD_FAILURE() << "capacity " << capacity << " was accepted";
  } catch (const std::invalid_argument& error) {
    const std::string expected = "capacity " + std::to_string(capacity) +
                                 " is below the initial share " +
                                 std::to_string(share);
    EXPECT_NE(std::string(error.what()).find(expected), std::string::npos)
        << error.what();
  }
}

TEST(CommitTxn, OneChipSystemRejectsUndersizedCapacityUpFront) {
  auto config = Hosts::single_config(0);
  config.tcam_capacity = kRoutes - 1;
  expect_rejected_up_front([&] { system::ClueSystem(edge_fib(), config); },
                           kRoutes - 1, kRoutes);
}

TEST(CommitTxn, SystemRejectsUndersizedCapacityUpFront) {
  auto config = Hosts::system_config(0);
  config.tcam_capacity = kPerChip - 1;
  expect_rejected_up_front([&] { system::ClueSystem(edge_fib(), config); },
                           kPerChip - 1, kPerChip);
}

TEST(CommitTxn, RuntimeRejectsUndersizedCapacityUpFront) {
  auto config = Hosts::runtime_config(0);
  config.chip_capacity = kPerChip - 1;
  expect_rejected_up_front(
      [&] { runtime::LookupRuntime(edge_fib(), config); }, kPerChip - 1,
      kPerChip);
}

TEST(CommitTxn, SystemModifySyncDoesNotPromoteDredEntry) {
  trie::BinaryTrie fib;
  fib.insert(*Prefix::parse("10.0.0.0/8"), make_next_hop(1));
  fib.insert(*Prefix::parse("20.0.0.0/8"), make_next_hop(2));
  fib.insert(*Prefix::parse("30.0.0.0/8"), make_next_hop(3));
  fib.insert(*Prefix::parse("40.0.0.0/8"), make_next_hop(4));
  system::ClueSystem host(fib, system::SystemConfig{});
  // One route per chip. Homes 0 and 1: DReds 2 and 3 cache A then B.
  host.warm({Ipv4Address::from_octets(10, 1, 1, 1),
             Ipv4Address::from_octets(20, 1, 1, 1)});
  const engine::DredStore& dred = host.dred(2);
  const auto order = dred.contents();
  ASSERT_EQ(order, (std::vector<Prefix>{*Prefix::parse("20.0.0.0/8"),
                                        *Prefix::parse("10.0.0.0/8")}));
  const auto stats = dred.stats();

  host.apply(announce("10.0.0.0/8", 5));  // a modify of A

  EXPECT_EQ(dred.contents(), order);
  EXPECT_EQ(dred.stats().insertions, stats.insertions);
  EXPECT_EQ(dred.stats().updates, stats.updates + 1);
}

}  // namespace
}  // namespace clue::update
