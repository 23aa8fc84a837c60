#include <gtest/gtest.h>

#include <cmath>

#include "netbase/rng.hpp"
#include "stats/stats.hpp"
#include "update/clpl_pipeline.hpp"
#include "update/clue_pipeline.hpp"
#include "workload/rib_gen.hpp"
#include "workload/traffic_gen.hpp"
#include "workload/update_gen.hpp"

#include "test_support.hpp"

namespace clue::update {
namespace {

using test_support::announce;
using test_support::make_fib;
using test_support::withdraw;

using netbase::Ipv4Address;
using netbase::make_next_hop;
using netbase::Pcg32;
using netbase::Prefix;
using workload::UpdateKind;
using workload::UpdateMsg;

// ---------------------------------------------------------------------------
// CluePipeline

TEST(CluePipeline, TcamMirrorsCompressedTableInitially) {
  const auto fib = make_fib(2'000, 31);
  CluePipeline pipeline(fib, PipelineConfig{});
  EXPECT_EQ(pipeline.chip().occupied(), pipeline.fib().size());
}

TEST(CluePipeline, LookupMatchesGroundTruthAfterUpdates) {
  const auto fib = make_fib(2'000, 33);
  CluePipeline pipeline(fib, PipelineConfig{});
  workload::UpdateConfig update_config;
  update_config.seed = 35;
  workload::UpdateGenerator updates(fib, update_config);
  Pcg32 rng(37);
  for (int i = 0; i < 1'000; ++i) {
    pipeline.apply(updates.next());
    if (i % 50 == 0) {
      for (int probe = 0; probe < 20; ++probe) {
        const Ipv4Address address(rng.next());
        ASSERT_EQ(pipeline.lookup(address),
                  pipeline.fib().ground_truth().lookup(address))
            << address.to_string();
      }
    }
  }
}

TEST(CluePipeline, Ttf2IsOneTcamOpPerDiffOp) {
  const auto fib = make_fib(2'000, 39);
  CluePipeline pipeline(fib, PipelineConfig{});
  workload::UpdateConfig update_config;
  update_config.seed = 41;
  workload::UpdateGenerator updates(fib, update_config);
  for (int i = 0; i < 500; ++i) {
    const auto msg = updates.next();
    const auto before_moves = pipeline.chip().stats().moves;
    const auto sample = pipeline.apply(msg);
    // At most one physical shift per diff op (the CLUE claim); TTF2 is a
    // multiple of 24 ns.
    const double ops = sample.ttf2_ns / CostModel::kTcamOpNs;
    EXPECT_DOUBLE_EQ(ops, std::round(ops));
    (void)before_moves;
  }
}

TEST(CluePipeline, NoopUpdateCostsNoDataPlaneTime) {
  const auto fib = make_fib(500, 43);
  CluePipeline pipeline(fib, PipelineConfig{});
  // Withdrawing a prefix that does not exist leaves the data plane alone.
  const auto sample = pipeline.apply(withdraw("203.0.113.0/24"));
  EXPECT_EQ(sample.ttf2_ns, 0.0);
  EXPECT_EQ(sample.ttf3_ns, 0.0);
  EXPECT_GT(sample.ttf1_ns, 0.0);  // the trie check itself was timed
}

TEST(CluePipeline, InsertCostsNoDredTime) {
  trie::BinaryTrie fib;
  fib.insert(*Prefix::parse("10.0.0.0/8"), make_next_hop(1));
  CluePipeline pipeline(fib, PipelineConfig{});
  const auto sample = pipeline.apply(announce("99.1.0.0/16", 2));
  EXPECT_GT(sample.ttf2_ns, 0.0);
  EXPECT_EQ(sample.ttf3_ns, 0.0);  // inserts never touch the DReds
}

TEST(CluePipeline, DeleteErasesFromWarmDreds) {
  trie::BinaryTrie fib;
  fib.insert(*Prefix::parse("10.0.0.0/8"), make_next_hop(1));
  fib.insert(*Prefix::parse("99.0.0.0/8"), make_next_hop(2));
  CluePipeline pipeline(fib, PipelineConfig{});
  pipeline.warm({Ipv4Address::from_octets(10, 1, 2, 3),
                 Ipv4Address::from_octets(10, 4, 5, 6),
                 Ipv4Address::from_octets(10, 7, 8, 9),
                 Ipv4Address::from_octets(10, 10, 11, 12)});
  // The /8 is now cached in several DReds; withdrawing it must purge it.
  const auto sample = pipeline.apply(withdraw("10.0.0.0/8"));
  EXPECT_GT(sample.ttf3_ns, 0.0);
  for (std::size_t i = 0; i < pipeline.dred_count(); ++i) {
    EXPECT_FALSE(pipeline.dred(i).contains(*Prefix::parse("10.0.0.0/8")));
  }
}

TEST(CluePipeline, WarmRespectsExclusionRule) {
  const auto fib = make_fib(1'000, 45);
  CluePipeline pipeline(fib, PipelineConfig{});
  workload::TrafficConfig traffic_config;
  std::vector<Prefix> prefixes;
  for (const auto& route : pipeline.fib().compressed().routes()) {
    prefixes.push_back(route.prefix);
  }
  workload::TrafficGenerator traffic(prefixes, traffic_config);
  pipeline.warm(traffic.generate(2'000));
  // Round-robin warming: every DRed should hold something, but none is
  // force-fed every fill (size < fills).
  for (std::size_t i = 0; i < pipeline.dred_count(); ++i) {
    EXPECT_GT(pipeline.dred(i).size(), 0u);
  }
}

// ---------------------------------------------------------------------------
// ClplPipeline

TEST(ClplPipeline, TcamMirrorsFibInitially) {
  const auto fib = make_fib(2'000, 47);
  ClplPipeline pipeline(fib, PipelineConfig{});
  EXPECT_EQ(pipeline.chip().occupied(), fib.size());
}

TEST(ClplPipeline, LookupMatchesGroundTruthAfterUpdates) {
  const auto fib = make_fib(1'500, 49);
  ClplPipeline pipeline(fib, PipelineConfig{});
  workload::UpdateConfig update_config;
  update_config.seed = 51;
  workload::UpdateGenerator updates(fib, update_config);
  Pcg32 rng(53);
  for (int i = 0; i < 600; ++i) {
    pipeline.apply(updates.next());
    if (i % 50 == 0) {
      for (int probe = 0; probe < 20; ++probe) {
        const Ipv4Address address(rng.next());
        ASSERT_EQ(pipeline.lookup(address), pipeline.fib().lookup(address));
      }
    }
  }
}

TEST(ClplPipeline, InvalidatesOverlappingCacheEntries) {
  trie::BinaryTrie fib;
  fib.insert(*Prefix::parse("10.0.0.0/8"), make_next_hop(1));
  fib.insert(*Prefix::parse("10.1.0.0/16"), make_next_hop(2));
  ClplPipeline pipeline(fib, PipelineConfig{});
  pipeline.warm({Ipv4Address::from_octets(10, 200, 0, 1)});
  // RRC-ME cached some expansion under 10/8 in all caches.
  ASSERT_GT(pipeline.cache(0).size(), 0u);
  const auto cached = pipeline.cache(0).contents().front();
  // An update to an overlapping prefix must invalidate it.
  const auto sample = pipeline.apply(
      UpdateMsg{UpdateKind::kAnnounce, cached, make_next_hop(7)});
  EXPECT_GT(sample.ttf3_ns, 0.0);
  for (std::size_t i = 0; i < pipeline.cache_count(); ++i) {
    EXPECT_FALSE(pipeline.cache(i).contains(cached));
  }
}

TEST(ClplPipeline, CachedFillsAreExpansionsNotMatches) {
  trie::BinaryTrie fib;
  fib.insert(*Prefix::parse("128.0.0.0/1"), make_next_hop(1));
  fib.insert(*Prefix::parse("160.0.0.0/3"), make_next_hop(2));
  ClplPipeline pipeline(fib, PipelineConfig{});
  pipeline.warm({Ipv4Address::from_octets(128, 0, 0, 1)});
  // The match was 128/1 but the cacheable fill is 128/3 (paper Fig. 3).
  EXPECT_TRUE(pipeline.cache(0).contains(*Prefix::parse("128.0.0.0/3")));
  EXPECT_FALSE(pipeline.cache(0).contains(*Prefix::parse("128.0.0.0/1")));
}

// ---------------------------------------------------------------------------
// The comparative claims of Figs. 11-14.

struct TtfAccumulator {
  stats::Summary ttf1, ttf2, ttf3, total;

  void add(const TtfSample& sample) {
    ttf1.add(sample.ttf1_ns);
    ttf2.add(sample.ttf2_ns);
    ttf3.add(sample.ttf3_ns);
    total.add(sample.total_ns());
  }
};

TEST(TtfComparison, ClueDataPlaneUpdateIsFractionOfClpl) {
  const auto fib = make_fib(6'000, 55);
  CluePipeline clue(fib, PipelineConfig{});
  ClplPipeline clpl(fib, PipelineConfig{});

  // Warm both caches with the same traffic.
  std::vector<Prefix> prefixes;
  fib.for_each_route(
      [&prefixes](const netbase::Route& route) { prefixes.push_back(route.prefix); });
  workload::TrafficGenerator traffic(prefixes, workload::TrafficConfig{});
  const auto warm_traffic = traffic.generate(4'000);
  clue.warm(warm_traffic);
  clpl.warm(warm_traffic);

  workload::UpdateConfig update_config;
  update_config.seed = 57;
  workload::UpdateGenerator clue_updates(fib, update_config);
  workload::UpdateGenerator clpl_updates(fib, update_config);

  TtfAccumulator clue_acc, clpl_acc;
  for (int i = 0; i < 2'000; ++i) {
    clue_acc.add(clue.apply(clue_updates.next()));
    clpl_acc.add(clpl.apply(clpl_updates.next()));
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
  CluePipeline clue(fib, PipelineConfig{});
  ClplPipeline clpl(fib, PipelineConfig{});
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
}  // namespace clue::update
