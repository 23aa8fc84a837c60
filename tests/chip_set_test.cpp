// update::ChipSet: stage-all-or-nothing commits, staged migrations, and
// the DRed sweeps both plan. Each test reads the images back with
// stored_within(Prefix()) and route_count(), the shapes and counts
// admission and migration see.
#include "update/chip_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <vector>

#include "onrtc/compressed_fib.hpp"
#include "partition/partition.hpp"
#include "workload/update_gen.hpp"

#include "test_support.hpp"

namespace {

using clue::netbase::Ipv4Address;
using clue::netbase::make_next_hop;
using clue::netbase::Prefix;
using clue::netbase::Route;
using clue::engine::DredSync;
using clue::update::ChipSet;
using clue::update::ChipWork;
using clue::update::CommitPlan;
using clue::update::MigrationStep;

/// Each chip's stored routes, in chip order.
std::vector<std::vector<Route>> contents(const ChipSet& chips) {
  std::vector<std::vector<Route>> out;
  for (std::size_t i = 0; i < chips.size(); ++i) {
    out.push_back(chips.chip(i).stored_within(Prefix()));
  }
  return out;
}

/// The 3000-route RIB the table compresses.
clue::trie::BinaryTrie rib() { return clue::test_support::make_fib(3'000, 71); }

/// A sorted, disjoint table: a compressed 3000-route FIB.
std::vector<Route> table() {
  const clue::onrtc::CompressedFib fib(rib());
  return fib.compressed().routes();
}

ChipSet three_chips() { return ChipSet::even("ChipSetTest", table(), 3, 0); }

TEST(ChipSetTest, EvenSplitsTheTableAtItsBoundaries) {
  const auto routes = table();
  const ChipSet chips = ChipSet::even("ChipSetTest", routes, 3, 0);
  const auto partitions = clue::partition::even_partition(routes, 3);
  EXPECT_EQ(chips.boundaries(), partitions.boundaries);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(chips.chip(i).stored_within(Prefix()),
              partitions.buckets[i].routes);
  }
  EXPECT_EQ(chips.total_entries(), routes.size());
  EXPECT_THROW(ChipSet::even("ChipSetTest", routes, 3, 10),
               std::invalid_argument);
}

// A diff one image rejects throws before any chip is applied: the valid
// work staged for chip 0 is discarded with it, so chip 0 can stage again
// (a migration, then a commit).
TEST(ChipSetTest, StageIsAllOrNothing) {
  ChipSet chips = three_chips();
  const auto before = contents(chips);
  const auto counts = chips.occupancy();
  ASSERT_FALSE(before[0].empty());
  ASSERT_FALSE(before[1].empty());

  std::vector<ChipWork> work(chips.size());
  work[0].erases.push_back(before[0].front().prefix);  // stored on chip 0
  work[1].erases.push_back(before[0].back().prefix);   // not on chip 1
  EXPECT_THROW(chips.stage(work), std::invalid_argument);
  EXPECT_EQ(contents(chips), before);
  EXPECT_EQ(chips.occupancy(), counts);
  EXPECT_NO_THROW(chips.stage_migration(
      MigrationStep{.donor = 0, .receiver = 1, .count = 5}));

  work[1].erases.clear();
  const auto staged = chips.stage(work);
  ASSERT_EQ(staged.size(), 1u);
  EXPECT_EQ(staged[0].chip, 0u);
  chips.apply(staged[0]);
  EXPECT_EQ(chips.chip(0).route_count(), counts[0] - 1);
  EXPECT_EQ(contents(chips)[1], before[1]);
}

// A staged migration holds both sides unapplied: dropping it changes
// nothing, and the receiver's and donor's images can stage again.
TEST(ChipSetTest, DroppedStagedMigrationLeavesTheSetUnchanged) {
  ChipSet chips = three_chips();
  const auto before = contents(chips);
  const auto boundaries = chips.boundaries();
  {
    const auto staged = chips.stage_migration(
        MigrationStep{.donor = 1, .receiver = 2, .count = 40});
    EXPECT_EQ(staged.run.routes.size(), 40u);
  }
  EXPECT_EQ(contents(chips), before);
  EXPECT_EQ(chips.boundaries(), boundaries);
  // Nothing stays staged on either image.
  std::vector<ChipWork> work(chips.size());
  work[1].erases.push_back(before[1].front().prefix);
  work[2].writes.push_back(Route{before[2].front().prefix, make_next_hop(9)});
  EXPECT_EQ(chips.stage(work).size(), 2u);
}

// Applied, a migration moves exactly its run from donor to receiver and
// moves exactly the one boundary between them. Its receiver's DRed sweep
// erases exactly the run.
TEST(ChipSetTest, AppliedMigrationMovesItsRunAndOneBoundary) {
  for (const MigrationStep step :
       {MigrationStep{.donor = 1, .receiver = 2, .count = 40},
        MigrationStep{.donor = 1, .receiver = 0, .count = 25}}) {
    ChipSet chips = three_chips();
    const auto before = contents(chips);
    auto staged = chips.stage_migration(step);
    const std::vector<Route> run = staged.run.routes;
    ASSERT_EQ(run.size(), step.count);
    ASSERT_EQ(staged.sweep.size(), run.size());
    for (std::size_t i = 0; i < run.size(); ++i) {
      EXPECT_EQ(staged.sweep[i], (DredSync{DredSync::Kind::kErase, run[i]}));
    }
    chips.apply(staged.gain);
    chips.apply(staged.loss);
    std::vector<Ipv4Address> boundaries = chips.boundaries();
    chips.move_boundary(staged.run);
    boundaries[staged.run.boundary] = staged.run.new_boundary;
    EXPECT_EQ(chips.boundaries(), boundaries);

    const auto after = contents(chips);
    const bool rightward = step.receiver == step.donor + 1;
    // The donor lost the run from its receiver-side edge.
    std::vector<Route> donor = before[step.donor];
    std::vector<Route> receiver = before[step.receiver];
    if (rightward) {
      EXPECT_TRUE(std::equal(run.begin(), run.end(), donor.end() - step.count));
      donor.resize(donor.size() - step.count);
      receiver.insert(receiver.begin(), run.begin(), run.end());
      EXPECT_EQ(chips.boundaries()[step.donor], run.front().prefix.range_low());
    } else {
      EXPECT_TRUE(std::equal(run.begin(), run.end(), donor.begin()));
      donor.erase(donor.begin(), donor.begin() + step.count);
      receiver.insert(receiver.end(), run.begin(), run.end());
      EXPECT_EQ(chips.boundaries()[step.receiver],
                donor.front().prefix.range_low());
    }
    EXPECT_EQ(after[step.donor], donor);
    EXPECT_EQ(after[step.receiver], receiver);
    const std::size_t other = 3 - step.donor - step.receiver;
    EXPECT_EQ(after[other], before[other]);
  }
}

// A commit plans one DRed sweep per chip. Each deleted or modified stored
// shape is counted once in `synced` and lands in every sweep but its
// storing chip's: erased with its stored route, or fixed with the new
// hop the chip's writes carry. On one chip every sweep is empty while
// `synced` still counts the shapes.
TEST(ChipSetTest, CommitPlanSweepsEveryDredButTheStoringChips) {
  for (const std::size_t chip_count : {std::size_t{4}, std::size_t{1}}) {
    clue::onrtc::CompressedFib fib(rib());
    ChipSet chips =
        ChipSet::even("ChipSetTest", fib.compressed().routes(), chip_count, 0);
    clue::workload::UpdateConfig config;
    config.seed = 72;
    clue::workload::UpdateGenerator updates(rib(), config);
    std::size_t synced = 0;
    for (int round = 0; round < 50; ++round) {
      const auto messages = updates.generate(8);
      clue::update::BatchTxn txn(fib, messages);
      const CommitPlan& plan = txn.admit(chips);
      ASSERT_EQ(plan.sweeps.size(), chip_count);
      // Each synced shape, and the DReds whose sweeps carry it.
      std::map<Prefix, std::pair<DredSync, std::vector<std::size_t>>> shapes;
      for (std::size_t dred = 0; dred < chip_count; ++dred) {
        for (const DredSync& sync : plan.sweeps[dred]) {
          auto& [first, dreds] = shapes[sync.route.prefix];
          if (dreds.empty()) first = sync;
          EXPECT_EQ(sync, first) << "DReds disagree on one shape's sync";
          dreds.push_back(dred);
        }
      }
      std::size_t erased = 0;
      for (const ChipWork& work : plan.chips) erased += work.erases.size();
      for (const auto& [prefix, entry] : shapes) {
        const auto& [sync, dreds] = entry;
        // The unpatched images: the storing chip is the one whose image
        // matches the shape exactly.
        const std::size_t home = chips.chip_of(prefix.range_low());
        const auto stored = chips.chip(home).lookup_route(prefix.range_low());
        ASSERT_TRUE(stored && stored->prefix == prefix) << prefix.to_string();
        std::vector<std::size_t> expected;
        for (std::size_t dred = 0; dred < chip_count; ++dred) {
          if (dred != home) expected.push_back(dred);
        }
        EXPECT_EQ(dreds, expected) << prefix.to_string();
        const ChipWork& work = plan.chips[home];
        if (sync.kind == DredSync::Kind::kErase) {
          EXPECT_EQ(sync.route, *stored);
          EXPECT_NE(std::find(work.erases.begin(), work.erases.end(), prefix),
                    work.erases.end());
        } else {
          EXPECT_NE(std::find(work.writes.begin(), work.writes.end(),
                              sync.route),
                    work.writes.end());
        }
      }
      if (chip_count == 1) {
        EXPECT_TRUE(plan.sweeps[0].empty());
        EXPECT_GE(plan.synced, erased);
      } else {
        EXPECT_EQ(plan.synced, shapes.size());
        // Every erased shape is synced.
        std::size_t erase_syncs = 0;
        for (const auto& [prefix, entry] : shapes) {
          erase_syncs += entry.first.kind == DredSync::Kind::kErase;
        }
        EXPECT_EQ(erase_syncs, erased);
      }
      synced += plan.synced;
      for (auto& staged : chips.stage(plan.chips)) chips.apply(staged);
    }
    EXPECT_GT(synced, 0u) << chip_count << " chips";
  }
}

}  // namespace
