// Regression tests pinning down CompressedFib's covering-region fast
// path (the lockstep descent's recorded covering region): exact diff
// shapes for the hole-punch, absorb, and collapse cases. The generic invariant (incremental equals
// rebuild) lives in compressed_fib_test.cpp; these tests assert the
// *op-level* contract benches and TCAM accounting rely on.
#include <gtest/gtest.h>

#include <algorithm>

#include "netbase/rng.hpp"
#include "onrtc/compressed_fib.hpp"

namespace clue::onrtc {
namespace {

using netbase::Ipv4Address;
using netbase::kNoRoute;
using netbase::make_next_hop;
using netbase::Pcg32;

Prefix p(const char* text) {
  const auto parsed = Prefix::parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return *parsed;
}

std::size_t count_kind(const std::vector<FibOp>& ops, FibOpKind kind) {
  return static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(),
                    [kind](const FibOp& op) { return op.kind == kind; }));
}

TEST(FastPath, HolePunchEmitsPathSiblingsPlusChild) {
  CompressedFib fib;
  fib.announce(p("10.0.0.0/8"), make_next_hop(1));
  // Punch a /24 hole: delete the /8 region, insert the /24 plus one
  // sibling piece per level between /8 and /24 (16 of them).
  const auto ops = fib.announce(p("10.1.2.0/24"), make_next_hop(2));
  EXPECT_EQ(count_kind(ops, FibOpKind::kDelete), 1u);
  EXPECT_EQ(count_kind(ops, FibOpKind::kInsert), 17u);
  EXPECT_EQ(count_kind(ops, FibOpKind::kModify), 0u);
  EXPECT_EQ(fib.size(), 17u);
}

TEST(FastPath, SameHopAnnounceInsideRegionIsFree) {
  CompressedFib fib;
  fib.announce(p("10.0.0.0/8"), make_next_hop(1));
  EXPECT_TRUE(fib.announce(p("10.77.0.0/16"), make_next_hop(1)).empty());
  EXPECT_TRUE(fib.announce(p("10.77.88.0/24"), make_next_hop(1)).empty());
  EXPECT_EQ(fib.size(), 1u);
}

TEST(FastPath, WithdrawInsideRegionOfAbsorbedRouteIsFree) {
  CompressedFib fib;
  fib.announce(p("10.0.0.0/8"), make_next_hop(1));
  fib.announce(p("10.1.0.0/16"), make_next_hop(1));  // absorbed
  const auto ops = fib.withdraw(p("10.1.0.0/16"));
  EXPECT_TRUE(ops.empty());
  EXPECT_EQ(fib.size(), 1u);
}

TEST(FastPath, HolePunchThenSameHopRestoreCollapsesBack) {
  CompressedFib fib;
  fib.announce(p("10.0.0.0/8"), make_next_hop(1));
  fib.announce(p("10.1.2.0/24"), make_next_hop(2));
  ASSERT_EQ(fib.size(), 17u);
  // Flip the hole's hop back to the surrounding value: everything must
  // re-merge into the original /8 — delete all 17, insert 1.
  const auto ops = fib.announce(p("10.1.2.0/24"), make_next_hop(1));
  EXPECT_EQ(count_kind(ops, FibOpKind::kDelete), 17u);
  EXPECT_EQ(count_kind(ops, FibOpKind::kInsert), 1u);
  EXPECT_EQ(fib.size(), 1u);
  EXPECT_EQ(fib.compressed().routes().front().prefix, p("10.0.0.0/8"));
}

TEST(FastPath, WithdrawHolePunchedRouteRestoresRegion) {
  CompressedFib fib;
  fib.announce(p("10.0.0.0/8"), make_next_hop(1));
  fib.announce(p("10.1.2.0/24"), make_next_hop(2));
  const auto ops = fib.withdraw(p("10.1.2.0/24"));
  EXPECT_EQ(fib.size(), 1u);
  EXPECT_EQ(count_kind(ops, FibOpKind::kInsert), 1u);
  EXPECT_EQ(count_kind(ops, FibOpKind::kDelete), 17u);
}

TEST(FastPath, NestedHoleInsideHole) {
  CompressedFib fib;
  fib.announce(p("10.0.0.0/8"), make_next_hop(1));
  fib.announce(p("10.1.0.0/16"), make_next_hop(2));
  fib.announce(p("10.1.2.0/24"), make_next_hop(3));
  // Every level answers correctly.
  EXPECT_EQ(fib.lookup(*Ipv4Address::parse("10.200.0.1")), make_next_hop(1));
  EXPECT_EQ(fib.lookup(*Ipv4Address::parse("10.1.200.1")), make_next_hop(2));
  EXPECT_EQ(fib.lookup(*Ipv4Address::parse("10.1.2.200")), make_next_hop(3));
  // And the structure matches a fresh rebuild.
  EXPECT_EQ(fib.compressed().routes(), compress(fib.ground_truth()));
}

TEST(FastPath, ModifyOfExactRegionIsSingleOp) {
  CompressedFib fib;
  fib.announce(p("10.0.0.0/8"), make_next_hop(1));
  fib.announce(p("99.0.0.0/8"), make_next_hop(2));
  const auto ops = fib.announce(p("10.0.0.0/8"), make_next_hop(3));
  ASSERT_EQ(ops.size(), 1u);
  EXPECT_EQ(ops[0].kind, FibOpKind::kModify);
}

TEST(FastPath, ModifyTriggeringSiblingMergeAcrossRegions) {
  CompressedFib fib;
  fib.announce(p("10.0.0.0/9"), make_next_hop(1));
  fib.announce(p("10.128.0.0/9"), make_next_hop(2));
  ASSERT_EQ(fib.size(), 2u);
  // Changing the right /9 to match the left must merge into one /8.
  const auto ops = fib.announce(p("10.128.0.0/9"), make_next_hop(1));
  EXPECT_EQ(fib.size(), 1u);
  EXPECT_EQ(fib.compressed().routes().front().prefix, p("10.0.0.0/8"));
  EXPECT_EQ(count_kind(ops, FibOpKind::kDelete), 2u);
  EXPECT_EQ(count_kind(ops, FibOpKind::kInsert), 1u);
}

TEST(FastPath, CascadingUpwardMergeOverManyLevels) {
  CompressedFib fib;
  // Build four /10s under 10.0.0.0/8, three with hop 1, one with hop 2.
  fib.announce(p("10.0.0.0/10"), make_next_hop(1));
  fib.announce(p("10.64.0.0/10"), make_next_hop(1));
  fib.announce(p("10.128.0.0/10"), make_next_hop(1));
  fib.announce(p("10.192.0.0/10"), make_next_hop(2));
  // 10.0.0.0/9 (merged pair) + 10.128.0.0/10 + 10.192.0.0/10: the two
  // hop-1 regions at different levels cannot merge without the fourth.
  ASSERT_EQ(fib.size(), 3u);
  // Completing the square merges everything to a single /8.
  fib.announce(p("10.192.0.0/10"), make_next_hop(1));
  ASSERT_EQ(fib.size(), 1u);
  EXPECT_EQ(fib.compressed().routes().front().prefix, p("10.0.0.0/8"));
}

TEST(FastPath, AnnounceCoveringExistingRegions) {
  CompressedFib fib;
  fib.announce(p("10.1.0.0/16"), make_next_hop(1));
  fib.announce(p("10.2.0.0/16"), make_next_hop(2));
  // A new covering /8 with a third hop must fill all the gaps without
  // touching the two existing regions.
  const auto ops = fib.announce(p("10.0.0.0/8"), make_next_hop(3));
  EXPECT_EQ(count_kind(ops, FibOpKind::kDelete), 0u);
  EXPECT_EQ(count_kind(ops, FibOpKind::kModify), 0u);
  EXPECT_GT(count_kind(ops, FibOpKind::kInsert), 0u);
  EXPECT_EQ(fib.lookup(*Ipv4Address::parse("10.1.0.1")), make_next_hop(1));
  EXPECT_EQ(fib.lookup(*Ipv4Address::parse("10.2.0.1")), make_next_hop(2));
  EXPECT_EQ(fib.lookup(*Ipv4Address::parse("10.99.0.1")), make_next_hop(3));
  EXPECT_EQ(fib.compressed().routes(), compress(fib.ground_truth()));
}

TEST(FastPath, HostRouteHolePunch) {
  CompressedFib fib;
  fib.announce(p("10.0.0.0/8"), make_next_hop(1));
  const auto ops = fib.announce(p("10.0.0.1/32"), make_next_hop(2));
  // 24 sibling pieces + the /32 itself, one delete.
  EXPECT_EQ(count_kind(ops, FibOpKind::kInsert), 25u);
  EXPECT_EQ(fib.lookup(*Ipv4Address::parse("10.0.0.1")), make_next_hop(2));
  EXPECT_EQ(fib.lookup(*Ipv4Address::parse("10.0.0.0")), make_next_hop(1));
  EXPECT_EQ(fib.lookup(*Ipv4Address::parse("10.0.0.2")), make_next_hop(1));
}

TEST(FastPath, StressAgainstRebuildNearRegionBoundaries) {
  Pcg32 rng(501);
  CompressedFib fib;
  fib.announce(p("10.0.0.0/8"), make_next_hop(1));
  for (int step = 0; step < 400; ++step) {
    // Bias updates toward the same /16 so holes, restores and merges
    // constantly interact.
    const Prefix prefix(
        Ipv4Address(0x0A010000u | (rng.next() & 0xFFFF)),
        20 + rng.next_below(13));
    if (rng.chance(0.7)) {
      fib.announce(prefix, make_next_hop(1 + rng.next_below(3)));
    } else {
      fib.withdraw(prefix);
    }
    ASSERT_EQ(fib.compressed().routes(), compress(fib.ground_truth()))
        << "step " << step;
  }
}

}  // namespace
}  // namespace clue::onrtc
