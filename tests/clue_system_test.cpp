#include "system/clue_system.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "netbase/rng.hpp"
#include "obs/metrics_registry.hpp"
#include "workload/rib_gen.hpp"
#include "workload/traffic_gen.hpp"
#include "workload/update_gen.hpp"

#include "test_support.hpp"

namespace clue::system {
namespace {

using test_support::announce;
using test_support::make_fib;
using test_support::random_addresses;
using test_support::withdraw;

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

// ---------------------------------------------------------------------------
// ClueSystem on one chip: the paper's whole-path update (Fig. 6)

TEST(ClueSystemOneChip, TcamMirrorsCompressedTableInitially) {
  const auto fib = make_fib(2'000, 31);
  ClueSystem system(fib, SystemConfig{.tcam_count = 1});
  EXPECT_EQ(system.chip(0).route_count(), system.fib().size());
}

TEST(ClueSystemOneChip, LookupMatchesGroundTruthAfterUpdates) {
  const auto fib = make_fib(2'000, 33);
  ClueSystem system(fib, SystemConfig{.tcam_count = 1});
  workload::UpdateConfig update_config;
  update_config.seed = 35;
  workload::UpdateGenerator updates(fib, update_config);
  Pcg32 rng(37);
  for (int i = 0; i < 1'000; ++i) {
    system.apply(updates.next());
    if (i % 50 == 0) {
      for (int probe = 0; probe < 20; ++probe) {
        const Ipv4Address address(rng.next());
        ASSERT_EQ(system.lookup(address),
                  system.fib().ground_truth().lookup(address))
            << address.to_string();
      }
    }
  }
}

TEST(ClueSystemOneChip, Ttf2IsOneTcamOpPerDiffOp) {
  const auto fib = make_fib(2'000, 39);
  ClueSystem system(fib, SystemConfig{.tcam_count = 1});
  workload::UpdateConfig update_config;
  update_config.seed = 41;
  workload::UpdateGenerator updates(fib, update_config);
  std::size_t changed = 0;
  for (int i = 0; i < 500; ++i) {
    const auto message = updates.next();
    const auto batch = system.apply_batch({&message, 1});
    ASSERT_EQ(batch.rejected, 0u);
    // One chip stores every region whole, so each net diff op is one
    // TCAM operation: at most one shift (the CLUE claim).
    EXPECT_EQ(batch.ttf.ttf2_ns / update::CostModel::kTcamOpNs,
              static_cast<double>(batch.merged_ops))
        << "update " << i;
    if (batch.merged_ops > 0) ++changed;
  }
  EXPECT_GT(changed, 0u);
}

TEST(ClueSystemOneChip, NoopUpdateCostsNoDataPlaneTime) {
  const auto fib = make_fib(500, 43);
  ClueSystem system(fib, SystemConfig{.tcam_count = 1});
  // Withdrawing a prefix that does not exist leaves the data plane alone.
  const auto sample = system.apply(withdraw("203.0.113.0/24"));
  EXPECT_EQ(sample.ttf2_ns, 0.0);
  EXPECT_EQ(sample.ttf3_ns, 0.0);
  EXPECT_GT(sample.ttf1_ns, 0.0);  // the trie check itself was timed
}

TEST(ClueSystemOneChip, InsertCostsNoDredTime) {
  trie::BinaryTrie fib;
  fib.insert(*Prefix::parse("10.0.0.0/8"), make_next_hop(1));
  ClueSystem system(fib, SystemConfig{.tcam_count = 1});
  const auto sample = system.apply(announce("99.1.0.0/16", 2));
  EXPECT_GT(sample.ttf2_ns, 0.0);
  EXPECT_EQ(sample.ttf3_ns, 0.0);  // inserts never touch the DReds
}

TEST(ClueSystemOneChip, WarmCachesNothing) {
  const auto fib = make_fib(2'000, 45);
  ClueSystem system(fib, SystemConfig{.tcam_count = 1});
  // Chip 0 is every address's home, and the exclusion rule keeps its
  // prefixes out of DRed 0.
  system.warm(random_addresses(2'000, 46));
  EXPECT_EQ(system.dred(0).size(), 0u);
}

// lookup() never probes a DRed, so the system exports DRed contents
// counters only: a warmed system shows its fills, and no lookup, hit or
// hit-rate figure that would always read 0.
TEST(ClueSystem, WarmedSystemExportsDredFillsButNoHitRate) {
  const auto fib = make_fib(5'000, 49);
  ClueSystem system(fib, SystemConfig{});
  ASSERT_EQ(system.tcam_count(), 4u);
  system.warm(random_addresses(4'000, 50));
  obs::MetricsRegistry registry;
  system.export_metrics(registry);
  std::uint64_t insertions = 0;
  bool growths_seen = false;
  for (const auto& [name, value] : registry.counters()) {
    if (name.ends_with(".dred.insertions")) insertions += value;
    if (name == "onrtc.trie_growths") {
      growths_seen = true;
      EXPECT_EQ(value, system.fib().trie_growths());
    }
    EXPECT_FALSE(name.ends_with(".dred.lookups")) << name;
    EXPECT_FALSE(name.ends_with(".dred.hits")) << name;
  }
  EXPECT_GT(insertions, 0u);
  EXPECT_TRUE(growths_seen);
  for (const auto& [name, value] : registry.gauges()) {
    EXPECT_FALSE(name.ends_with(".dred.hit_rate")) << name;
  }
}

TEST(ClueSystemOneChip, RebalanceNowNeverMigrates) {
  const auto fib = make_fib(2'000, 47);
  ClueSystem system(fib, SystemConfig{.tcam_count = 1});
  Pcg32 rng(48);
  for (int i = 0; i < 300; ++i) {
    system.apply(UpdateMsg{UpdateKind::kAnnounce,
                           Prefix(Ipv4Address(rng.next_below(0x20000000u)), 24),
                           make_next_hop(1 + rng.next_below(250))});
  }
  EXPECT_EQ(system.rebalance_now(), 0u);
  EXPECT_EQ(system.skew(), 1.0);
}

// ---------------------------------------------------------------------------
// ClueSystem's DReds, warmed

/// DRed coherence: DRed i caches only shapes some other chip stores
/// (the exclusion rule), with the hop that chip stores. Returns the
/// first violation, or "" when there is none.
std::string dred_violation(const ClueSystem& system) {
  for (std::size_t i = 0; i < system.tcam_count(); ++i) {
    const std::string dred = "DRed " + std::to_string(i) + " caches ";
    for (const auto& cached : system.dred(i).routes()) {
      const std::string what = dred + cached.prefix.to_string();
      bool stored = false;
      for (std::size_t chip = 0; chip < system.tcam_count(); ++chip) {
        const auto shape =
            system.chip(chip).lookup_route(cached.prefix.range_low());
        if (!shape || shape->prefix != cached.prefix) continue;
        stored = true;
        if (chip == i) return what + ", its own chip's prefix";
        if (shape->next_hop != cached.next_hop) {
          return what + " with a stale hop";
        }
      }
      if (!stored) return what + ", stored on no chip";
    }
  }
  return "";
}

TEST(ClueSystem, DeleteErasesFromWarmDreds) {
  trie::BinaryTrie fib;
  fib.insert(*Prefix::parse("10.0.0.0/8"), make_next_hop(1));
  fib.insert(*Prefix::parse("40.0.0.0/8"), make_next_hop(2));
  fib.insert(*Prefix::parse("99.0.0.0/8"), make_next_hop(3));
  fib.insert(*Prefix::parse("200.0.0.0/8"), make_next_hop(4));
  ClueSystem system(fib, SystemConfig{});
  const Prefix slash8 = *Prefix::parse("10.0.0.0/8");
  ASSERT_EQ(system.chip(0).lookup_route(slash8.range_low()),
            (netbase::Route{slash8, make_next_hop(1)}));
  system.warm({Ipv4Address::from_octets(10, 1, 2, 3),
               Ipv4Address::from_octets(10, 4, 5, 6)});
  // Homed at chip 0, the /8 is cached in every other DRed; withdrawing
  // it must purge it from all of them.
  for (std::size_t i = 1; i < system.tcam_count(); ++i) {
    ASSERT_TRUE(system.dred(i).contains(slash8)) << "DRed " << i;
  }
  const auto sample = system.apply(withdraw("10.0.0.0/8"));
  EXPECT_GT(sample.ttf3_ns, 0.0);
  for (std::size_t i = 0; i < system.tcam_count(); ++i) {
    EXPECT_FALSE(system.dred(i).contains(slash8)) << "DRed " << i;
  }
}

TEST(ClueSystem, WarmRespectsExclusionRule) {
  const auto fib = make_fib(1'000, 45);
  ClueSystem system(fib, SystemConfig{});
  std::vector<Prefix> prefixes;
  for (const auto& route : system.fib().compressed().routes()) {
    prefixes.push_back(route.prefix);
  }
  workload::TrafficGenerator traffic(prefixes, workload::TrafficConfig{});
  system.warm(traffic.generate(2'000));
  // Every DRed caches something, only stored shapes of other chips.
  for (std::size_t i = 0; i < system.tcam_count(); ++i) {
    EXPECT_GT(system.dred(i).size(), 0u) << "DRed " << i;
  }
  EXPECT_EQ(dred_violation(system), "");
}

TEST(ClueSystem, WarmCachesTheStoredPiecesOfASplitRegion) {
  trie::BinaryTrie fib;
  fib.insert(*Prefix::parse("10.0.0.0/8"), make_next_hop(1));
  fib.insert(*Prefix::parse("40.0.0.0/8"), make_next_hop(2));
  fib.insert(*Prefix::parse("99.0.0.0/8"), make_next_hop(3));
  fib.insert(*Prefix::parse("200.0.0.0/8"), make_next_hop(4));
  ClueSystem system(fib, SystemConfig{});
  // 32/3 with 40/8's hop absorbs it: one compressed region across the
  // chip 0 | chip 1 boundary, stored as a piece on each side.
  const Prefix region = *Prefix::parse("32.0.0.0/3");
  system.apply(UpdateMsg{UpdateKind::kAnnounce, region, make_next_hop(2)});
  ASSERT_EQ(system.fib().compressed().lookup_route(
                Ipv4Address::from_octets(32, 0, 0, 1))->prefix,
            region);
  for (std::size_t chip = 0; chip < system.tcam_count(); ++chip) {
    const auto shape = system.chip(chip).lookup_route(region.range_low());
    ASSERT_FALSE(shape && shape->prefix == region) << "chip " << chip;
  }

  // The DReds cache the pieces either end matched, never the region the
  // sync could not erase.
  system.warm({region.range_low(), region.range_high()});
  for (std::size_t i = 0; i < system.tcam_count(); ++i) {
    EXPECT_FALSE(system.dred(i).contains(region)) << "DRed " << i;
  }
  EXPECT_GT(system.dred(2).size(), 0u);
  EXPECT_EQ(dred_violation(system), "");
  system.apply(withdraw("32.0.0.0/3"));
  EXPECT_EQ(dred_violation(system), "");
  for (std::size_t i = 0; i < system.tcam_count(); ++i) {
    EXPECT_EQ(system.dred(i).size(), 0u) << "DRed " << i;
  }
}

TEST(ClueSystem, WarmDredsKeepExclusionThroughChurnAndMigration) {
  const auto fib = make_fib(2'000, 441);
  SystemConfig config;
  config.dred_capacity = 8'192;  // room for every stored shape
  ClueSystem system(fib, config);
  std::vector<Ipv4Address> warm;
  for (const auto& route : system.fib().compressed().routes()) {
    warm.push_back(route.prefix.range_low());
  }
  system.warm(warm);
  ASSERT_EQ(dred_violation(system), "");

  // Hot /24 churn on chip 0 trips the drift watch, so migrations hand
  // chip 0's cached shapes to neighbours whose DReds hold them.
  Pcg32 rng(442);
  for (int u = 0; u < 1'000; ++u) {
    system.apply(UpdateMsg{UpdateKind::kAnnounce,
                           Prefix(Ipv4Address(rng.next_below(0x20000000u)), 24),
                           make_next_hop(1 + rng.next_below(250))});
    ASSERT_EQ(dred_violation(system), "") << "after update " << u;
  }
  system.rebalance_now();
  EXPECT_EQ(dred_violation(system), "");

  obs::MetricsRegistry registry;
  system.export_metrics(registry);
  std::uint64_t migrated = 0;
  for (const auto& [name, value] : registry.counters()) {
    if (name == "system.entries_migrated") migrated = value;
  }
  EXPECT_GT(migrated, 0u) << "the churn never migrated a shape";
}

}  // namespace
}  // namespace clue::system
