#include "system/clpl_system.hpp"

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "netbase/rng.hpp"
#include "stats/stats.hpp"
#include "system/clue_system.hpp"
#include "workload/rib_gen.hpp"
#include "workload/traffic_gen.hpp"
#include "workload/update_gen.hpp"

#include "test_support.hpp"

namespace clue::system {
namespace {

using test_support::make_fib;
using test_support::random_addresses;

using netbase::Ipv4Address;
using netbase::make_next_hop;
using netbase::Pcg32;
using netbase::Prefix;
using workload::UpdateKind;
using workload::UpdateMsg;

TEST(ClplSystem, InitialLookupsMatchGroundTruth) {
  const auto fib = make_fib(3'000, 901);
  ClplSystem system(fib, ClplSystemConfig{});
  Pcg32 rng(902);
  for (int probe = 0; probe < 4'000; ++probe) {
    const Ipv4Address address(rng.next());
    ASSERT_EQ(system.lookup(address), fib.lookup(address))
        << address.to_string();
  }
}

TEST(ClplSystem, TotalEntriesIncludeReplicas) {
  const auto fib = make_fib(3'000, 903);
  ClplSystem system(fib, ClplSystemConfig{});
  EXPECT_GE(system.total_tcam_entries(), fib.size());
}

TEST(ClplSystem, LookupsStayCorrectUnderUpdateStream) {
  const auto fib = make_fib(2'500, 905);
  ClplSystem system(fib, ClplSystemConfig{});
  workload::UpdateConfig update_config;
  update_config.seed = 906;
  workload::UpdateGenerator updates(fib, update_config);
  Pcg32 rng(907);
  for (int i = 0; i < 1'500; ++i) {
    system.apply(updates.next());
    if (i % 50 == 0) {
      for (int probe = 0; probe < 30; ++probe) {
        const Ipv4Address address(rng.next());
        ASSERT_EQ(system.lookup(address), system.fib().lookup(address))
            << "update " << i << " " << address.to_string();
      }
    }
  }
}

TEST(ClplSystem, CoveringAnnounceTouchesMultipleChips) {
  const auto fib = make_fib(4'000, 909);
  ClplSystem system(fib, ClplSystemConfig{});
  // A short covering route must be replicated into every bucket whose
  // carve roots it contains — the multi-chip update cost CLUE avoids.
  Pcg32 rng(910);
  const auto routes = fib.routes();
  std::size_t multi_chip = 0;
  for (int i = 0; i < 50; ++i) {
    // Anchor the wide prefix on routed space so it actually covers
    // carved subtrees.
    const auto& anchor =
        routes[rng.next_below(static_cast<std::uint32_t>(routes.size()))];
    const Prefix wide(anchor.prefix.address(), 1 + rng.next_below(3));
    const auto result = system.apply(UpdateMsg{
        UpdateKind::kAnnounce, wide,
        make_next_hop(1 + static_cast<std::uint32_t>(i) % 30)});
    if (result.chips_touched > 1) ++multi_chip;
    ASSERT_GE(result.entries_written, result.chips_touched);
  }
  EXPECT_GT(multi_chip, 10u) << "wide announces should hit several chips";
  // Lookups stay correct under the covering routes.
  for (int probe = 0; probe < 3'000; ++probe) {
    const Ipv4Address address(rng.next());
    ASSERT_EQ(system.lookup(address), system.fib().lookup(address));
  }
}

TEST(ClplSystem, WithdrawRemovesAllReplicas) {
  const auto fib = make_fib(3'000, 911);
  ClplSystem system(fib, ClplSystemConfig{});
  const Prefix wide(Ipv4Address(0x50000000u), 5);
  const auto announce = system.apply(
      UpdateMsg{UpdateKind::kAnnounce, wide, make_next_hop(7)});
  const auto before = system.total_tcam_entries();
  const auto withdraw =
      system.apply(UpdateMsg{UpdateKind::kWithdraw, wide, netbase::kNoRoute});
  EXPECT_EQ(withdraw.chips_touched, announce.chips_touched);
  EXPECT_EQ(system.total_tcam_entries(),
            before - announce.entries_written);
}

TEST(ClplSystem, UpdateImpactComparedToClueSystem) {
  // The §IV-B story, quantified: on the same update stream the CLPL
  // system touches more chip entries per update than the CLUE system's
  // compressed diff (for the common announce/withdraw mix).
  const auto fib = make_fib(4'000, 913);
  ClplSystem clpl(fib, ClplSystemConfig{});
  ClueSystem clue(fib, SystemConfig{});
  workload::UpdateConfig update_config;
  update_config.seed = 914;
  workload::UpdateGenerator clpl_updates(fib, update_config);
  workload::UpdateGenerator clue_updates(fib, update_config);
  double clpl_ttf2 = 0;
  double clue_ttf2 = 0;
  for (int i = 0; i < 800; ++i) {
    clpl_ttf2 += clpl.apply(clpl_updates.next()).ttf.ttf2_ns;
    clue_ttf2 += clue.apply(clue_updates.next()).ttf2_ns;
  }
  EXPECT_GT(clpl_ttf2, 2.0 * clue_ttf2);
}

TEST(ClplSystem, WarmedCachesPayInvalidationCosts) {
  const auto fib = make_fib(2'000, 915);
  ClplSystem system(fib, ClplSystemConfig{});
  Pcg32 rng(916);
  std::vector<Ipv4Address> warm;
  const auto routes = fib.routes();
  for (int i = 0; i < 2'000; ++i) {
    warm.push_back(
        routes[rng.next_below(static_cast<std::uint32_t>(routes.size()))]
            .prefix.range_low());
  }
  system.warm(warm);
  workload::UpdateConfig update_config;
  update_config.seed = 917;
  workload::UpdateGenerator updates(fib, update_config);
  double ttf3 = 0;
  for (int i = 0; i < 300; ++i) {
    ttf3 += system.apply(updates.next()).ttf.ttf3_ns;
  }
  EXPECT_GT(ttf3, 0.0);
}

TEST(ClplSystem, Ttf3ChargesEachDistinctStalePrefixOnce) {
  const auto fib = make_fib(2'000, 919);
  ClplSystem system(fib, ClplSystemConfig{});
  ASSERT_EQ(system.tcam_count(), 4u);
  system.warm(random_addresses(2'000, 920));
  // Every fill went to all four caches. An announce one level above a
  // cached expansion makes it (and any neighbour under the same parent)
  // stale in each of them.
  ASSERT_GT(system.cache(0).size(), 0u);
  const Prefix cached = system.cache(0).contents().front();
  ASSERT_GT(cached.length(), 0u);
  const Prefix wider(cached.range_low(), cached.length() - 1);
  const auto hop = make_next_hop(251);
  ASSERT_NE(system.fib().find(wider), hop);
  std::unordered_set<Prefix> stale;
  for (std::size_t i = 0; i < system.tcam_count(); ++i) {
    for (const auto& victim : system.cache(i).overlapping(wider)) {
      stale.insert(victim);
    }
  }
  ASSERT_FALSE(stale.empty());

  const auto result =
      system.apply(UpdateMsg{UpdateKind::kAnnounce, wider, hop});
  // The SRAM walk (path plus subtree) and one parallel probe per
  // distinct stale prefix, however many caches held it.
  const std::size_t walk = wider.length() + system.fib().nodes_within(wider);
  EXPECT_EQ(result.ttf.ttf3_ns,
            static_cast<double>(walk) * update::CostModel::kSramAccessNs +
                static_cast<double>(stale.size()) *
                    update::CostModel::kTcamOpNs);
  for (std::size_t i = 0; i < system.tcam_count(); ++i) {
    EXPECT_TRUE(system.cache(i).overlapping(wider).empty()) << "cache " << i;
  }
}

// ---------------------------------------------------------------------------
// ClplSystem on one chip: the baseline whole-path update

TEST(ClplSystemOneChip, TcamMirrorsFibInitially) {
  const auto fib = make_fib(2'000, 47);
  ClplSystem system(fib, ClplSystemConfig{.tcam_count = 1});
  EXPECT_EQ(system.chip(0).occupied(), fib.size());
  EXPECT_EQ(system.total_tcam_entries(), fib.size());
}

TEST(ClplSystemOneChip, LookupMatchesGroundTruthAfterUpdates) {
  const auto fib = make_fib(1'500, 49);
  ClplSystem system(fib, ClplSystemConfig{.tcam_count = 1});
  workload::UpdateConfig update_config;
  update_config.seed = 51;
  workload::UpdateGenerator updates(fib, update_config);
  Pcg32 rng(53);
  for (int i = 0; i < 600; ++i) {
    system.apply(updates.next());
    if (i % 50 == 0) {
      for (int probe = 0; probe < 20; ++probe) {
        const Ipv4Address address(rng.next());
        ASSERT_EQ(system.lookup(address), system.fib().lookup(address));
      }
    }
  }
}

TEST(ClplSystemOneChip, InvalidatesOverlappingCacheEntries) {
  trie::BinaryTrie fib;
  fib.insert(*Prefix::parse("10.0.0.0/8"), make_next_hop(1));
  fib.insert(*Prefix::parse("10.1.0.0/16"), make_next_hop(2));
  ClplSystem system(fib, ClplSystemConfig{.tcam_count = 1});
  system.warm({Ipv4Address::from_octets(10, 200, 0, 1)});
  // RRC-ME cached some expansion under 10/8.
  ASSERT_GT(system.cache(0).size(), 0u);
  const auto cached = system.cache(0).contents().front();
  // An update to an overlapping prefix must invalidate it.
  const auto result = system.apply(
      UpdateMsg{UpdateKind::kAnnounce, cached, make_next_hop(7)});
  EXPECT_GT(result.ttf.ttf3_ns, 0.0);
  EXPECT_FALSE(system.cache(0).contains(cached));
}

TEST(ClplSystemOneChip, CachedFillsAreExpansionsNotMatches) {
  trie::BinaryTrie fib;
  fib.insert(*Prefix::parse("128.0.0.0/1"), make_next_hop(1));
  fib.insert(*Prefix::parse("160.0.0.0/3"), make_next_hop(2));
  ClplSystem system(fib, ClplSystemConfig{.tcam_count = 1});
  system.warm({Ipv4Address::from_octets(128, 0, 0, 1)});
  // The match was 128/1 but the cacheable fill is 128/3 (paper Fig. 3).
  EXPECT_TRUE(system.cache(0).contains(*Prefix::parse("128.0.0.0/3")));
  EXPECT_FALSE(system.cache(0).contains(*Prefix::parse("128.0.0.0/1")));
}

// ---------------------------------------------------------------------------
// The comparative claims of Figs. 11-14, one chip per scheme.

struct TtfAccumulator {
  stats::Summary ttf1, ttf2, ttf3, total;

  void add(const update::TtfSample& sample) {
    ttf1.add(sample.ttf1_ns);
    ttf2.add(sample.ttf2_ns);
    ttf3.add(sample.ttf3_ns);
    total.add(sample.total_ns());
  }
};

TEST(TtfComparison, ClueDataPlaneUpdateIsFractionOfClpl) {
  const auto fib = make_fib(6'000, 55);
  ClueSystem clue(fib, SystemConfig{.tcam_count = 1});
  ClplSystem clpl(fib, ClplSystemConfig{.tcam_count = 1});

  // Warm the CLPL caches; CLUE's DRed sync cost does not depend on what
  // is cached (and its one DRed stays empty under the exclusion rule).
  std::vector<Prefix> prefixes;
  fib.for_each_route([&prefixes](const netbase::Route& route) {
    prefixes.push_back(route.prefix);
  });
  workload::TrafficGenerator traffic(prefixes, workload::TrafficConfig{});
  clpl.warm(traffic.generate(4'000));

  workload::UpdateConfig update_config;
  update_config.seed = 57;
  workload::UpdateGenerator clue_updates(fib, update_config);
  workload::UpdateGenerator clpl_updates(fib, update_config);

  TtfAccumulator clue_acc, clpl_acc;
  for (int i = 0; i < 2'000; ++i) {
    clue_acc.add(clue.apply(clue_updates.next()));
    clpl_acc.add(clpl.apply(clpl_updates.next()).ttf);
  }
  // Figure 11: TTF2-CLPL ≈ 15 ops, TTF2-CLUE ≈ 1 op.
  EXPECT_GT(clpl_acc.ttf2.mean(), 3.5 * clue_acc.ttf2.mean());
  // Figure 12: TTF3-CLPL several times TTF3-CLUE.
  EXPECT_GT(clpl_acc.ttf3.mean(), 2.0 * clue_acc.ttf3.mean());
  // Figure 13: TTF2+TTF3 of CLUE is a small fraction of CLPL's.
  const double ratio = (clue_acc.ttf2.mean() + clue_acc.ttf3.mean()) /
                       (clpl_acc.ttf2.mean() + clpl_acc.ttf3.mean());
  EXPECT_LT(ratio, 0.30);
}

TEST(TtfComparison, SameUpdatesSameForwardingBehaviour) {
  const auto fib = make_fib(2'000, 59);
  ClueSystem clue(fib, SystemConfig{.tcam_count = 1});
  ClplSystem clpl(fib, ClplSystemConfig{.tcam_count = 1});
  workload::UpdateConfig update_config;
  update_config.seed = 61;
  workload::UpdateGenerator clue_updates(fib, update_config);
  workload::UpdateGenerator clpl_updates(fib, update_config);
  Pcg32 rng(63);
  for (int i = 0; i < 400; ++i) {
    clue.apply(clue_updates.next());
    clpl.apply(clpl_updates.next());
  }
  // Both data planes implement the same (updated) forwarding function.
  for (int probe = 0; probe < 2'000; ++probe) {
    const Ipv4Address address(rng.next());
    ASSERT_EQ(clue.lookup(address), clpl.lookup(address))
        << address.to_string();
  }
}

}  // namespace
}  // namespace clue::system
