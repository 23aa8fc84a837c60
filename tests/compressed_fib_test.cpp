#include "onrtc/compressed_fib.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "netbase/rng.hpp"
#include "workload/rib_gen.hpp"
#include "workload/update_gen.hpp"

namespace clue::onrtc {
namespace {

using netbase::Ipv4Address;
using netbase::kNoRoute;
using netbase::make_next_hop;
using netbase::Pcg32;
using trie::BinaryTrie;

Prefix p(const char* text) {
  const auto parsed = Prefix::parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return *parsed;
}

// The load-bearing invariant: after any update sequence, the
// incrementally maintained compressed table must equal a from-scratch
// compression of the current ground truth, byte for byte.
void expect_matches_rebuild(const CompressedFib& fib) {
  const auto incremental = fib.compressed().routes();
  const auto rebuilt = compress(fib.ground_truth());
  ASSERT_EQ(incremental, rebuilt);
}

TEST(CompressedFib, StartsAsFullCompression) {
  BinaryTrie fib;
  fib.insert(p("10.0.0.0/9"), make_next_hop(1));
  fib.insert(p("10.128.0.0/9"), make_next_hop(1));
  const CompressedFib compressed(fib);
  EXPECT_EQ(compressed.size(), 1u);
  expect_matches_rebuild(compressed);
}

TEST(CompressedFib, AnnounceIntoEmpty) {
  CompressedFib fib;
  const auto ops = fib.announce(p("10.0.0.0/8"), make_next_hop(1));
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].kind, FibOpKind::kInsert);
  EXPECT_EQ(ops[0].route, (Route{p("10.0.0.0/8"), make_next_hop(1)}));
  expect_matches_rebuild(fib);
}

TEST(CompressedFib, DuplicateAnnounceIsNoop) {
  CompressedFib fib;
  fib.announce(p("10.0.0.0/8"), make_next_hop(1));
  EXPECT_TRUE(fib.announce(p("10.0.0.0/8"), make_next_hop(1)).empty());
}

TEST(CompressedFib, WithdrawUnknownIsNoop) {
  CompressedFib fib;
  fib.announce(p("10.0.0.0/8"), make_next_hop(1));
  EXPECT_TRUE(fib.withdraw(p("11.0.0.0/8")).empty());
  EXPECT_TRUE(fib.withdraw(p("10.0.0.0/16")).empty());
}

TEST(CompressedFib, NextHopChangeEmitsModify) {
  CompressedFib fib;
  fib.announce(p("10.0.0.0/8"), make_next_hop(1));
  const auto ops = fib.announce(p("10.0.0.0/8"), make_next_hop(2));
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].kind, FibOpKind::kModify);
  EXPECT_EQ(ops[0].route.next_hop, make_next_hop(2));
  expect_matches_rebuild(fib);
}

TEST(CompressedFib, SiblingAnnounceTriggersUpwardMerge) {
  CompressedFib fib;
  fib.announce(p("10.0.0.0/9"), make_next_hop(1));
  expect_matches_rebuild(fib);
  const auto ops = fib.announce(p("10.128.0.0/9"), make_next_hop(1));
  // /9 + /9 with the same hop collapse into one /8.
  EXPECT_EQ(fib.size(), 1u);
  EXPECT_EQ(fib.compressed().routes()[0].prefix, p("10.0.0.0/8"));
  expect_matches_rebuild(fib);
  // The diff must say: delete the old /9, insert the /8.
  EXPECT_EQ(ops.size(), 2u);
}

TEST(CompressedFib, WithdrawSplitsMergedRegion) {
  BinaryTrie fib;
  fib.insert(p("10.0.0.0/9"), make_next_hop(1));
  fib.insert(p("10.128.0.0/9"), make_next_hop(1));
  CompressedFib compressed(fib);
  ASSERT_EQ(compressed.size(), 1u);
  compressed.withdraw(p("10.128.0.0/9"));
  EXPECT_EQ(compressed.size(), 1u);
  EXPECT_EQ(compressed.compressed().routes()[0].prefix, p("10.0.0.0/9"));
  expect_matches_rebuild(compressed);
}

TEST(CompressedFib, ChildInsertUnderCoveringRegionSplitsIt) {
  CompressedFib fib;
  fib.announce(p("10.0.0.0/8"), make_next_hop(1));
  fib.announce(p("10.0.1.0/24"), make_next_hop(2));
  expect_matches_rebuild(fib);
  EXPECT_EQ(fib.lookup(Ipv4Address::from_octets(10, 0, 1, 5)),
            make_next_hop(2));
  EXPECT_EQ(fib.lookup(Ipv4Address::from_octets(10, 200, 0, 1)),
            make_next_hop(1));
}

TEST(CompressedFib, ChildWithdrawRestoresCoveringRegion) {
  CompressedFib fib;
  fib.announce(p("10.0.0.0/8"), make_next_hop(1));
  fib.announce(p("10.0.1.0/24"), make_next_hop(2));
  const auto before = fib.size();
  EXPECT_GT(before, 1u);
  fib.withdraw(p("10.0.1.0/24"));
  EXPECT_EQ(fib.size(), 1u);
  expect_matches_rebuild(fib);
}

TEST(CompressedFib, SameHopChildIsAbsorbedSilently) {
  CompressedFib fib;
  fib.announce(p("10.0.0.0/8"), make_next_hop(1));
  const auto ops = fib.announce(p("10.0.1.0/24"), make_next_hop(1));
  // The forwarding function did not change; no TCAM churn allowed.
  EXPECT_TRUE(ops.empty());
  EXPECT_EQ(fib.size(), 1u);
  expect_matches_rebuild(fib);
}

TEST(CompressedFib, WithdrawEverything) {
  CompressedFib fib;
  fib.announce(p("10.0.0.0/8"), make_next_hop(1));
  fib.announce(p("11.0.0.0/8"), make_next_hop(2));
  fib.withdraw(p("10.0.0.0/8"));
  fib.withdraw(p("11.0.0.0/8"));
  EXPECT_EQ(fib.size(), 0u);
  EXPECT_EQ(fib.lookup(Ipv4Address::from_octets(10, 0, 0, 1)), kNoRoute);
  expect_matches_rebuild(fib);
}

TEST(CompressedFib, DefaultRouteAnnounceAndWithdraw) {
  CompressedFib fib;
  fib.announce(p("10.0.0.0/8"), make_next_hop(1));
  fib.announce(Prefix(), make_next_hop(9));
  expect_matches_rebuild(fib);
  fib.withdraw(Prefix());
  expect_matches_rebuild(fib);
  EXPECT_EQ(fib.lookup(Ipv4Address::from_octets(99, 0, 0, 1)), kNoRoute);
}

TEST(CompressedFib, OpsReplayReproducesNewTable) {
  Pcg32 rng(41);
  CompressedFib fib;
  // Replay target: apply returned ops to a mirror and compare.
  trie::BinaryTrie mirror;
  for (int step = 0; step < 600; ++step) {
    const Prefix prefix(Ipv4Address(0x0A000000u | (rng.next() & 0xFFFFFF)),
                        8 + rng.next_below(18));
    std::vector<FibOp> ops;
    if (rng.chance(0.7)) {
      ops = fib.announce(prefix, make_next_hop(1 + rng.next_below(4)));
    } else {
      ops = fib.withdraw(prefix);
    }
    for (const auto& op : ops) {
      switch (op.kind) {
        case FibOpKind::kInsert:
        case FibOpKind::kModify:
          mirror.insert(op.route.prefix, op.route.next_hop);
          break;
        case FibOpKind::kDelete:
          ASSERT_TRUE(mirror.erase(op.route.prefix))
              << op.route.prefix.to_string();
          break;
      }
    }
    if (step % 100 == 99) {
      ASSERT_EQ(mirror.routes(), fib.compressed().routes());
    }
  }
  ASSERT_EQ(mirror.routes(), fib.compressed().routes());
}

TEST(CompressedFib, RandomizedIncrementalEqualsRebuild) {
  Pcg32 rng(43);
  CompressedFib fib;
  for (int step = 0; step < 800; ++step) {
    const Prefix prefix(Ipv4Address(0x0A000000u | (rng.next() & 0xFFFFFF)),
                        8 + rng.next_below(20));
    if (rng.chance(0.65)) {
      fib.announce(prefix, make_next_hop(1 + rng.next_below(3)));
    } else {
      fib.withdraw(prefix);
    }
    if (step % 40 == 39) expect_matches_rebuild(fib);
  }
  expect_matches_rebuild(fib);
}

TEST(CompressedFib, LookupAlwaysMatchesGroundTruth) {
  Pcg32 rng(47);
  CompressedFib fib;
  for (int step = 0; step < 500; ++step) {
    const Prefix prefix(Ipv4Address(0x0A000000u | (rng.next() & 0xFFFFFF)),
                        8 + rng.next_below(22));
    if (rng.chance(0.7)) {
      fib.announce(prefix, make_next_hop(1 + rng.next_below(5)));
    } else {
      fib.withdraw(prefix);
    }
    for (int probe = 0; probe < 5; ++probe) {
      const Ipv4Address address(0x0A000000u | (rng.next() & 0xFFFFFF));
      ASSERT_EQ(fib.lookup(address), fib.ground_truth().lookup(address));
    }
  }
}

TEST(CompressedFib, RealisticUpdateStreamKeepsInvariant) {
  workload::RibConfig rib_config;
  rib_config.table_size = 4'000;
  rib_config.seed = 3;
  const auto base = workload::generate_rib(rib_config);
  CompressedFib fib(base);
  expect_matches_rebuild(fib);

  workload::UpdateConfig update_config;
  update_config.seed = 4;
  workload::UpdateGenerator updates(base, update_config);
  for (int i = 0; i < 2'000; ++i) {
    const auto msg = updates.next();
    if (msg.kind == workload::UpdateKind::kAnnounce) {
      fib.announce(msg.prefix, msg.next_hop);
    } else {
      fib.withdraw(msg.prefix);
    }
    if (i % 250 == 249) expect_matches_rebuild(fib);
  }
  expect_matches_rebuild(fib);
}

TEST(CompressedFib, CompressedTableIsAlwaysDisjoint) {
  Pcg32 rng(53);
  CompressedFib fib;
  for (int step = 0; step < 400; ++step) {
    const Prefix prefix(Ipv4Address(rng.next()), 4 + rng.next_below(26));
    if (rng.chance(0.7)) {
      fib.announce(prefix, make_next_hop(1 + rng.next_below(3)));
    } else {
      fib.withdraw(prefix);
    }
    ASSERT_TRUE(fib.compressed().is_disjoint()) << "step " << step;
  }
}


// Differential stream length: 3000 steps per run, or CLUE_SOAK_UPDATES /
// 50 when that is more (ci/check.sh's soak stage). The stream is seeded,
// so a longer run replays the default one first.
std::size_t differential_steps() {
  const char* env = std::getenv("CLUE_SOAK_UPDATES");
  const long long n = env ? std::atoll(env) : 0;
  return std::max<std::size_t>(3000, n > 0 ? static_cast<std::size_t>(n / 50)
                                           : 0);
}

// Every message's diff is exactly the sorted diff of the full
// recompressions before and after it, op for op and in order; the
// reported prior hop is the truth's hop before the message; and the
// compressed trie is compress(truth) with no stray nodes. The stream mixes
// /0 and /32 routes, kNoRoute announces, withdraws of absent prefixes,
// duplicate announces, same-prefix flaps, hole punches down to /32 and
// sibling runs whose last piece merges a whole subtree, up to /0.
TEST(CompressedFib, EveryDiffEqualsTheFullRecompressionDiff) {
  Pcg32 rng(61);
  CompressedFib fib;
  std::vector<Route> before;
  std::vector<FibOp> ops;
  const auto hop = [&rng] { return make_next_hop(1 + rng.next_below(3)); };
  // Addresses crowd into two /12s, so routes nest and meet as siblings.
  const auto address = [&rng] {
    const std::uint32_t base = rng.chance(0.5) ? 0x0A000000u : 0x0A100000u;
    return Ipv4Address(rng.chance(0.9) ? base | (rng.next() & 0x000FFFFFu)
                                       : rng.next());
  };
  const auto step = [&](bool announce, const Prefix& prefix, NextHop next_hop) {
    const std::optional<NextHop> truth_prior = fib.ground_truth().find(prefix);
    ops.clear();
    const std::optional<NextHop> prior = announce
                                             ? fib.announce(prefix, next_hop, ops)
                                             : fib.withdraw(prefix, ops);
    const auto after = compress(fib.ground_truth());
    std::vector<FibOp> expected;
    detail::diff_tables(before, after, expected);
    ASSERT_EQ(prior, truth_prior) << prefix.to_string();
    ASSERT_EQ(ops, expected) << prefix.to_string();
    ASSERT_EQ(fib.compressed().routes(), after) << prefix.to_string();
    ASSERT_EQ(fib.compressed().node_count(),
              BinaryTrie(std::span<const Route>(after)).node_count())
        << prefix.to_string();
    before = after;
  };

  const std::size_t steps = differential_steps();
  for (std::size_t done = 0; done < steps;) {
    const std::uint32_t kind = rng.next_below(100);
    const auto routes = fib.ground_truth().routes();
    if (kind < 30) {  // announce anywhere, lengths /0 to /32
      const unsigned length = rng.chance(0.1) ? (rng.chance(0.5) ? 0 : 32)
                                               : rng.next_below(33);
      step(true, Prefix(address(), length),
           rng.chance(0.05) ? kNoRoute : hop());
      ++done;
    } else if (kind < 50) {  // withdraw a present route, or an absent one
      const Prefix prefix =
          routes.empty() || rng.chance(0.2)
              ? Prefix(address(), rng.next_below(33))
              : routes[rng.next_below(static_cast<std::uint32_t>(
                           routes.size()))].prefix;
      step(false, prefix, kNoRoute);
      ++done;
    } else if (kind < 60 && !routes.empty()) {  // duplicate, then a flap
      const Route route = routes[rng.next_below(
          static_cast<std::uint32_t>(routes.size()))];
      step(true, route.prefix, route.next_hop);
      step(true, route.prefix, hop());
      step(true, route.prefix, route.next_hop);
      done += 3;
    } else if (kind < 75 && !routes.empty()) {  // punch holes to /32
      const Route route = routes[rng.next_below(
          static_cast<std::uint32_t>(routes.size()))];
      const Ipv4Address inside(route.prefix.bits() |
                               (rng.next() & ~route.prefix.mask()));
      for (unsigned length = route.prefix.length() + 1 + rng.next_below(4);
           length <= 32; length += 1 + rng.next_below(6)) {
        step(true, Prefix(inside, length), hop());
        ++done;
      }
      step(true, Prefix(inside, 32), hop());
      ++done;
    } else if (kind < 95) {  // a sibling run that merges up to `top`
      // A run to /0 first empties the table, so its last piece cascades
      // all the way up.
      const unsigned top = rng.chance(0.1) ? 0 : rng.next_below(24);
      if (top == 0) {
        for (const Route& route : routes) {
          step(false, route.prefix, kNoRoute);
          ++done;
        }
      }
      const Prefix root(address(), top);
      const Ipv4Address deep(root.bits() | (rng.next() & ~root.mask()));
      const unsigned bottom = top + 1 + rng.next_below(32 - top);
      const NextHop shared = hop();
      for (unsigned length = top + 1; length <= bottom; ++length) {
        step(true, Prefix(deep, length).sibling(), shared);
        ++done;
      }
      step(true, Prefix(deep, bottom), shared);
      ++done;
    } else {  // clear out, so the table keeps meeting the empty state
      for (const Route& route : routes) {
        if (rng.chance(0.5)) {
          step(false, route.prefix, kNoRoute);
          ++done;
        }
      }
    }
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace clue::onrtc
