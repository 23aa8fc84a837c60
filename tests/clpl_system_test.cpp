#include "system/clpl_system.hpp"

#include <gtest/gtest.h>

#include "netbase/rng.hpp"
#include "system/clue_system.hpp"
#include "workload/rib_gen.hpp"
#include "workload/update_gen.hpp"

#include "test_support.hpp"

namespace clue::system {
namespace {

using test_support::make_fib;

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

}  // namespace
}  // namespace clue::system
