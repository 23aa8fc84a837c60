#include "system/clue_system.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "netbase/rng.hpp"
#include "obs/metrics_registry.hpp"
#include "workload/rib_gen.hpp"
#include "workload/update_gen.hpp"

#include "test_support.hpp"

namespace clue::system {
namespace {

using test_support::make_fib;

using netbase::cidr_cover;
using netbase::make_next_hop;
using netbase::Pcg32;
using workload::UpdateKind;
using workload::UpdateMsg;

// ---------------------------------------------------------------------------
// cidr_cover (the boundary-splitting primitive)

TEST(CidrCover, SingleAddress) {
  const auto cover = cidr_cover(Ipv4Address(5), Ipv4Address(5));
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], Prefix(Ipv4Address(5), 32));
}

TEST(CidrCover, AlignedBlockIsOnePrefix) {
  const auto cover = cidr_cover(*Ipv4Address::parse("10.0.0.0"),
                                *Ipv4Address::parse("10.0.0.255"));
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].to_string(), "10.0.0.0/24");
}

TEST(CidrCover, WholeSpace) {
  const auto cover =
      cidr_cover(Ipv4Address(0), Ipv4Address(~std::uint32_t{0}));
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].length(), 0u);
}

TEST(CidrCover, UnalignedRangeDecomposes) {
  // [10.0.0.1 .. 10.0.0.6] = .1/32 .2/31 .4/31 .6/32
  const auto cover = cidr_cover(*Ipv4Address::parse("10.0.0.1"),
                                *Ipv4Address::parse("10.0.0.6"));
  ASSERT_EQ(cover.size(), 4u);
  EXPECT_EQ(cover[0].to_string(), "10.0.0.1/32");
  EXPECT_EQ(cover[1].to_string(), "10.0.0.2/31");
  EXPECT_EQ(cover[2].to_string(), "10.0.0.4/31");
  EXPECT_EQ(cover[3].to_string(), "10.0.0.6/32");
}

TEST(CidrCover, RejectsReversedRange) {
  EXPECT_THROW(cidr_cover(Ipv4Address(2), Ipv4Address(1)),
               std::invalid_argument);
}

TEST(CidrCover, PropertyExactDisjointCover) {
  Pcg32 rng(401);
  for (int round = 0; round < 200; ++round) {
    std::uint32_t a = rng.next();
    std::uint32_t b = rng.next() & 0xFFFFu;  // modest ranges
    const Ipv4Address low(std::min(a, a + b));
    const Ipv4Address high(std::max(a, a + b));
    const auto cover = cidr_cover(low, high);
    // Pieces are sorted, adjacent, and cover exactly [low, high].
    std::uint64_t cursor = low.value();
    for (const auto& piece : cover) {
      ASSERT_EQ(piece.range_low().value(), cursor);
      cursor = std::uint64_t{piece.range_high().value()} + 1;
    }
    ASSERT_EQ(cursor, std::uint64_t{high.value()} + 1);
  }
}

// ---------------------------------------------------------------------------
// ClueSystem

TEST(ClueSystem, InitialChipsHoldWholeCompressedTable) {
  const auto fib = make_fib(3'000, 411);
  ClueSystem system(fib, SystemConfig{});
  EXPECT_EQ(system.total_tcam_entries(), system.fib().size());
  EXPECT_EQ(system.tcam_count(), 4u);
}

TEST(ClueSystem, LookupMatchesGroundTruth) {
  const auto fib = make_fib(3'000, 413);
  ClueSystem system(fib, SystemConfig{});
  Pcg32 rng(414);
  for (int probe = 0; probe < 3'000; ++probe) {
    const Ipv4Address address(rng.next());
    ASSERT_EQ(system.lookup(address), fib.lookup(address))
        << address.to_string();
  }
}

TEST(ClueSystem, LookupMatchesGroundTruthAfterUpdateStream) {
  const auto fib = make_fib(3'000, 415);
  ClueSystem system(fib, SystemConfig{});
  workload::UpdateConfig update_config;
  update_config.seed = 416;
  workload::UpdateGenerator updates(fib, update_config);
  Pcg32 rng(417);
  for (int i = 0; i < 2'000; ++i) {
    system.apply(updates.next());
    if (i % 50 == 0) {
      for (int probe = 0; probe < 30; ++probe) {
        const Ipv4Address address(rng.next());
        ASSERT_EQ(system.lookup(address),
                  system.fib().ground_truth().lookup(address))
            << "update " << i << " " << address.to_string();
      }
    }
  }
}

TEST(ClueSystem, BoundarySpanningRegionsAreSplitNotLost) {
  const auto fib = make_fib(3'000, 419);
  ClueSystem system(fib, SystemConfig{});
  // Force boundary-spanning regions: announce short prefixes until one
  // covers a partition boundary, then verify lookups on both sides.
  Pcg32 rng(420);
  for (int i = 0; i < 200; ++i) {
    const Prefix wide(Ipv4Address(rng.next()), 6 + rng.next_below(6));
    system.apply(UpdateMsg{UpdateKind::kAnnounce, wide,
                           make_next_hop(1 + rng.next_below(8))});
  }
  // Total entries may exceed the compressed size (splits), never shrink
  // below it.
  EXPECT_GE(system.total_tcam_entries(), system.fib().size());
  for (int probe = 0; probe < 5'000; ++probe) {
    const Ipv4Address address(rng.next());
    ASSERT_EQ(system.lookup(address),
              system.fib().ground_truth().lookup(address))
        << address.to_string();
  }
}

TEST(ClueSystem, WithdrawingEverythingEmptiesChips) {
  trie::BinaryTrie fib;
  fib.insert(*Prefix::parse("10.0.0.0/8"), make_next_hop(1));
  fib.insert(*Prefix::parse("99.0.0.0/8"), make_next_hop(2));
  ClueSystem system(fib, SystemConfig{});
  system.apply(UpdateMsg{UpdateKind::kWithdraw, *Prefix::parse("10.0.0.0/8"),
                         netbase::kNoRoute});
  system.apply(UpdateMsg{UpdateKind::kWithdraw, *Prefix::parse("99.0.0.0/8"),
                         netbase::kNoRoute});
  EXPECT_EQ(system.total_tcam_entries(), 0u);
  EXPECT_EQ(system.lookup(*Ipv4Address::parse("10.1.1.1")), netbase::kNoRoute);
}

TEST(ClueSystem, TtfAccountingUsesCriticalPath) {
  const auto fib = make_fib(2'000, 421);
  ClueSystem system(fib, SystemConfig{});
  workload::UpdateConfig update_config;
  update_config.seed = 422;
  workload::UpdateGenerator updates(fib, update_config);
  for (int i = 0; i < 500; ++i) {
    const auto sample = system.apply(updates.next());
    EXPECT_GE(sample.ttf1_ns, 0.0);
    // TTF2 is a multiple of the 24 ns op cost.
    const double ops = sample.ttf2_ns / update::CostModel::kTcamOpNs;
    EXPECT_DOUBLE_EQ(ops, std::round(ops));
  }
}

TEST(ClueSystem, EngineSetupSnapshotIsRunnable) {
  const auto fib = make_fib(2'000, 423);
  ClueSystem system(fib, SystemConfig{});
  const auto setup = system.engine_setup();
  engine::EngineConfig config;
  engine::ParallelEngine engine(engine::EngineMode::kClue, config, setup);
  Pcg32 rng(424);
  const auto routes = system.fib().compressed().routes();
  const auto metrics = engine.run(
      [&rng, &routes] {
        const auto& route =
            routes[rng.next_below(static_cast<std::uint32_t>(routes.size()))];
        return route.prefix.range_low();
      },
      5'000);
  EXPECT_EQ(metrics.packets_completed + metrics.packets_dropped, 5'000u);
  EXPECT_GT(metrics.packets_completed, 4'000u);
}

TEST(ClueSystem, RuntimeStartsFromTheLiveCompressedFib) {
  const auto fib = make_fib(5'000, 431);
  ClueSystem system(fib, SystemConfig{});
  system.apply(UpdateMsg{UpdateKind::kAnnounce,
                         *Prefix::parse("10.1.2.0/24"), make_next_hop(7)});
  const auto runtime = system.runtime();
  EXPECT_EQ(runtime->fib().compressed().routes(),
            system.fib().compressed().routes());
  EXPECT_EQ(runtime->fib().ground_truth().routes(),
            system.fib().ground_truth().routes());

  obs::MetricsRegistry registry;
  system.export_metrics(registry);
  bool seen = false;
  for (const auto& [name, value] : registry.gauges()) {
    if (name != "onrtc.trie_bytes") continue;
    seen = true;
    EXPECT_EQ(value, static_cast<double>(system.fib().memory_bytes()));
  }
  EXPECT_TRUE(seen);
}

}  // namespace
}  // namespace clue::system
