// FlatLookupTable differential fuzz: the flat direct-index image must
// agree with the authoritative BinaryTrie — next hop *and* stored route
// shape (prefix, length, hop) — and with TcamChip's honest O(capacity)
// search_linear scan over randomized non-overlapping tables, including
// in-place patches after inserts, deletes, modifies, and simulated
// boundary migrations — plus the patch contract: one staged patch at a
// time, a failed stage leaving the image untouched, every block a patch
// unlinks parked exactly once and never while its bundle is held (the
// ASan stage runs this file with LeakSanitizer on and parked blocks
// poisoned) — and the image's block pool: recycled blocks start clean,
// a parked block is never one the image still reads, and the pool stops
// at its cap — plus random erase/write streams checked step by step
// against a full build from the ground-truth trie (stream length scales
// with CLUE_SOAK_UPDATES; see ci/check.sh's soak stage), and concurrent
// readers that must see, per address, the pre- or the post-patch answer
// of a patch in their window while a writer patches (TSan stage too).
#include "engine/flat_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "netbase/prefix.hpp"
#include "netbase/rng.hpp"
#include "runtime/epoch.hpp"
#include "tcam/tcam_chip.hpp"
#include "trie/binary_trie.hpp"

namespace {

using clue::engine::FlatLookupTable;
using clue::netbase::Ipv4Address;
using clue::netbase::make_next_hop;
using clue::netbase::NextHop;
using clue::netbase::Pcg32;
using clue::netbase::Prefix;
using clue::netbase::Route;
using clue::trie::BinaryTrie;

// A candidate prefix overlaps the stored set iff something at or above
// it covers its base, or something strictly below it lies within it.
bool overlaps_any(const BinaryTrie& table, const Prefix& prefix) {
  const auto cover = table.lookup_route(prefix.range_low());
  if (cover && cover->prefix.length() <= prefix.length()) return true;
  return !table.routes_within(prefix).empty();
}

Prefix random_prefix(Pcg32& rng, unsigned min_len, unsigned max_len) {
  const unsigned len = min_len + rng.next() % (max_len - min_len + 1);
  return Prefix(Ipv4Address(rng.next()), len);
}

// Builds a random non-overlapping table with lengths spanning both
// sides of /24 so level-2 blocks get real coverage.
BinaryTrie make_disjoint_table(std::size_t target, std::uint64_t seed,
                               unsigned min_len = 8) {
  BinaryTrie table;
  Pcg32 rng(seed);
  while (table.size() < target) {
    const Prefix candidate = random_prefix(rng, min_len, 30);
    if (overlaps_any(table, candidate)) continue;
    table.insert(candidate, make_next_hop(1 + rng.next() % 255));
  }
  EXPECT_TRUE(table.is_disjoint());
  return table;
}

// A diff in stage()'s terms.
struct Diff {
  std::vector<Prefix> erases;
  std::vector<Route> writes;
};

// The diff taking `before` to `after`, two tables that differ only within
// the `dirty` regions: every shape `before` stores there that `after`
// lacks is erased, and every route `after` holds there that `before`
// lacks or maps to another hop is written. Read off the ground-truth
// tries only.
Diff diff_between(const BinaryTrie& before, const BinaryTrie& after,
                  const std::vector<Prefix>& dirty) {
  const auto collect = [&dirty](const BinaryTrie& table) {
    std::map<Prefix, NextHop> routes;
    for (const Prefix& region : dirty) {
      const auto cover = table.lookup_route(region.range_low());
      if (cover && cover->prefix.length() <= region.length()) {
        routes.emplace(cover->prefix, cover->next_hop);
      }
      for (const auto& route : table.routes_within(region)) {
        routes.emplace(route.prefix, route.next_hop);
      }
    }
    return routes;
  };
  const auto old_routes = collect(before);
  const auto new_routes = collect(after);
  Diff diff;
  for (const auto& [prefix, hop] : old_routes) {
    if (!new_routes.contains(prefix)) diff.erases.push_back(prefix);
  }
  for (const auto& [prefix, hop] : new_routes) {
    const auto it = old_routes.find(prefix);
    if (it == old_routes.end() || it->second != hop) {
      diff.writes.push_back(Route{prefix, hop});
    }
  }
  return diff;
}

// Stages and applies `diff` in place. Returns what the patch unlinked;
// with no concurrent reader, dropping it at once is safe.
FlatLookupTable::Retired patch(FlatLookupTable& flat, const Diff& diff) {
  return flat.apply(flat.stage(diff.erases, diff.writes));
}

// Patches `flat` (an image of `before`) in place to image `after`.
FlatLookupTable::Retired patch_to(FlatLookupTable& flat,
                                  const BinaryTrie& before,
                                  const BinaryTrie& after,
                                  const std::vector<Prefix>& dirty) {
  return patch(flat, diff_between(before, after, dirty));
}

// Probe set: every route's range edges (where paint bugs live) plus
// their neighbours one address outside, plus uniform-random addresses.
std::vector<Ipv4Address> probe_addresses(const BinaryTrie& table,
                                         std::size_t random_count,
                                         std::uint64_t seed) {
  std::vector<Ipv4Address> probes;
  for (const auto& route : table.routes()) {
    const std::uint32_t lo = route.prefix.range_low().value();
    const std::uint32_t hi = route.prefix.range_high().value();
    probes.emplace_back(lo);
    probes.emplace_back(hi);
    if (lo != 0) probes.emplace_back(lo - 1);
    if (hi != 0xFFFF'FFFFu) probes.emplace_back(hi + 1);
  }
  Pcg32 rng(seed);
  for (std::size_t i = 0; i < random_count; ++i) probes.emplace_back(rng.next());
  return probes;
}

// The flat image's stored-shape answer must be the trie's, exactly.
void expect_same_route(const FlatLookupTable& flat, const BinaryTrie& table,
                       Ipv4Address address) {
  const auto expected = table.lookup_route(address);
  const auto got = flat.lookup_route(address);
  ASSERT_EQ(got.has_value(), expected.has_value())
      << "address " << address.to_string();
  if (!expected) return;
  ASSERT_EQ(got->prefix, expected->prefix)
      << "address " << address.to_string();
  ASSERT_EQ(got->prefix.length(), expected->prefix.length());
  ASSERT_EQ(got->next_hop, expected->next_hop)
      << "address " << address.to_string();
}

void expect_matches_trie(const FlatLookupTable& flat, const BinaryTrie& table,
                         const std::vector<Ipv4Address>& probes) {
  for (const auto address : probes) {
    ASSERT_EQ(flat.lookup(address), table.lookup(address))
        << "address " << address.to_string();
    expect_same_route(flat, table, address);
  }
}

TEST(FlatTableTest, MatchesTrieAndLinearTcamScan) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    const auto table = make_disjoint_table(2'000, seed);
    const FlatLookupTable flat(table);

    clue::tcam::TcamChip chip(4'096);
    std::size_t slot = 0;
    for (const auto& route : table.routes()) {
      chip.write(slot++, {route.prefix, route.next_hop});
    }

    const auto probes = probe_addresses(table, 4'000, seed * 7);
    for (const auto address : probes) {
      const NextHop expected = table.lookup(address);
      ASSERT_EQ(flat.lookup(address), expected)
          << "flat vs trie at " << address.to_string();
      expect_same_route(flat, table, address);
      const auto linear = chip.search_linear(address);
      const NextHop tcam_hop =
          linear.hit ? linear.next_hop : clue::netbase::kNoRoute;
      ASSERT_EQ(tcam_hop, expected)
          << "tcam linear vs trie at " << address.to_string();
    }
  }
}

TEST(FlatTableTest, CowRebuildTracksInsertsDeletesAndModifies) {
  Pcg32 rng(0xF1A7);
  auto table = make_disjoint_table(1'500, 66);
  auto flat = std::make_unique<FlatLookupTable>(table);

  for (int round = 0; round < 40; ++round) {
    std::vector<Prefix> dirty;
    const BinaryTrie before = table;
    const auto routes = table.routes();
    for (int op = 0; op < 25; ++op) {
      const unsigned kind = rng.next() % 3;
      if (kind == 0) {  // insert somewhere free
        const Prefix candidate = random_prefix(rng, 8, 30);
        if (overlaps_any(table, candidate)) continue;
        table.insert(candidate, make_next_hop(1 + rng.next() % 255));
        dirty.push_back(candidate);
      } else if (!routes.empty()) {
        const auto& victim = routes[rng.next() % routes.size()];
        if (!table.find(victim.prefix)) continue;  // already erased
        if (kind == 1) {  // delete
          table.erase(victim.prefix);
        } else {  // modify in place
          table.insert(victim.prefix, make_next_hop(1 + rng.next() % 255));
        }
        dirty.push_back(victim.prefix);
      }
    }
    patch_to(*flat, before, table, dirty);

    // The patched image must agree with the trie and with a
    // from-scratch build at the edges of every dirty region and beyond.
    std::vector<Ipv4Address> probes;
    for (const auto& prefix : dirty) {
      const std::uint32_t lo = prefix.range_low().value();
      const std::uint32_t hi = prefix.range_high().value();
      probes.emplace_back(lo);
      probes.emplace_back(hi);
      if (lo != 0) probes.emplace_back(lo - 1);
      if (hi != 0xFFFF'FFFFu) probes.emplace_back(hi + 1);
    }
    for (int i = 0; i < 512; ++i) probes.emplace_back(rng.next());
    expect_matches_trie(*flat, table, probes);

    // The incrementally kept counts must equal a fresh build's.
    const FlatLookupTable rebuilt(table);
    ASSERT_EQ(flat->chunk_count(), rebuilt.chunk_count()) << "round " << round;
    ASSERT_EQ(flat->l2_block_count(), rebuilt.l2_block_count())
        << "round " << round;
  }
  // After 40 rounds of drift, a final full sweep against a fresh build.
  const FlatLookupTable fresh(table);
  const auto probes = probe_addresses(table, 8'000, 77);
  expect_matches_trie(*flat, table, probes);
  for (const auto address : probes) {
    ASSERT_EQ(flat->lookup(address), fresh.lookup(address));
  }
}

TEST(FlatTableTest, MigrationRebuildMovesRangesBetweenSnapshots) {
  const auto whole = make_disjoint_table(2'000, 88);
  const auto routes = whole.routes();  // sorted by prefix ordering

  // Split at a boundary like the partitioner does, then migrate a band
  // of routes from the donor's bottom to the receiver's top.
  BinaryTrie donor;
  BinaryTrie receiver;
  const std::size_t split = routes.size() / 2;
  for (std::size_t i = 0; i < routes.size(); ++i) {
    (i < split ? receiver : donor).insert(routes[i].prefix,
                                          routes[i].next_hop);
  }
  auto donor_flat = std::make_unique<FlatLookupTable>(donor);
  auto receiver_flat = std::make_unique<FlatLookupTable>(receiver);

  const BinaryTrie donor_before = donor;
  const BinaryTrie receiver_before = receiver;
  std::vector<Prefix> migrated;
  for (std::size_t i = split; i < split + 200 && i < routes.size(); ++i) {
    donor.erase(routes[i].prefix);
    receiver.insert(routes[i].prefix, routes[i].next_hop);
    migrated.push_back(routes[i].prefix);
  }
  // Receiver is patched fat first, donor shrinks after — both patches
  // take the migrated prefixes as their dirty set.
  patch_to(*receiver_flat, receiver_before, receiver, migrated);
  patch_to(*donor_flat, donor_before, donor, migrated);

  expect_matches_trie(*receiver_flat, receiver,
                      probe_addresses(receiver, 4'000, 99));
  expect_matches_trie(*donor_flat, donor, probe_addresses(donor, 4'000, 111));
}

TEST(FlatTableTest, RejectsOverlapsAndRoundTripsHighHops) {
  BinaryTrie overlapping;
  overlapping.insert(Prefix(Ipv4Address(0x0A000000u), 8), make_next_hop(1));
  overlapping.insert(Prefix(Ipv4Address(0x0A010000u), 16), make_next_hop(2));
  EXPECT_THROW(FlatLookupTable{overlapping}, std::invalid_argument);

  // Hops are interned, so every 32-bit value round-trips — including
  // those with the top bit set, the bit entries use as the level-2 flag.
  BinaryTrie high_hop;
  high_hop.insert(Prefix(Ipv4Address(0x0A000000u), 8),
                  NextHop{0x8000'0001u});
  const FlatLookupTable high(high_hop);
  EXPECT_EQ(high.lookup(Ipv4Address(0x0A123456u)), NextHop{0x8000'0001u});
  expect_same_route(high, high_hop, Ipv4Address(0x0A123456u));
  EXPECT_EQ(high.lookup(Ipv4Address(0x0B000000u)), clue::netbase::kNoRoute);
}

TEST(FlatTableTest, EmptyTableAnswersNoRouteWithNoMemory) {
  BinaryTrie empty;
  const FlatLookupTable flat(empty);
  Pcg32 rng(123);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_EQ(flat.lookup(Ipv4Address(rng.next())), clue::netbase::kNoRoute);
  }
  EXPECT_EQ(flat.chunk_count(), 0u);
  EXPECT_EQ(flat.l2_block_count(), 0u);
}

TEST(FlatTableTest, DeletingLongRoutesReleasesLevel2AndChunks) {
  BinaryTrie table;
  // Three /26s inside one /24 slot -> one level-2 block; one /16 -> a
  // band of direct entries.
  const Prefix a(Ipv4Address(0xC0A80100u), 26);
  const Prefix b(Ipv4Address(0xC0A80140u), 26);
  const Prefix c(Ipv4Address(0xC0A801C0u), 26);
  const Prefix wide(Ipv4Address(0x0B000000u), 16);
  table.insert(a, make_next_hop(1));
  table.insert(b, make_next_hop(2));
  table.insert(c, make_next_hop(3));
  table.insert(wide, make_next_hop(4));

  auto flat = std::make_unique<FlatLookupTable>(table);
  EXPECT_EQ(flat->l2_block_count(), 1u);
  EXPECT_GT(flat->chunk_count(), 0u);

  const BinaryTrie before = table;
  table.erase(a);
  table.erase(b);
  table.erase(c);
  table.erase(wide);
  const std::vector<Prefix> dirty{a, b, c, wide};
  const auto retired = patch_to(*flat, before, table, dirty);
  // Uniform collapse unlinks the level-2 block; emptied chunks drop back
  // to the null representation. The bundle holds all three.
  EXPECT_EQ(flat->l2_block_count(), 0u);
  EXPECT_EQ(flat->chunk_count(), 0u);
  EXPECT_EQ(retired.blocks(), 3u);
  expect_matches_trie(*flat, table, probe_addresses(table, 2'000, 321));
}

TEST(FlatTableTest, SharesUntouchedChunksWithPreviousSnapshot) {
  auto table = make_disjoint_table(2'000, 444);
  FlatLookupTable flat(table);

  // One surgical modify per stored length: the patch stores the changed
  // slots or level-2 entries in place, so it takes no block, unlinks
  // nothing and leaves the image's size as it was — its cost tracks the
  // diff, not the image.
  const auto pool_before = flat.pool()->stats();
  const std::size_t bytes_before = flat.memory_bytes();
  for (const unsigned length : {16u, 24u, 28u}) {
    const BinaryTrie old_table = table;
    const auto routes = table.routes();
    const auto it = std::find_if(routes.begin(), routes.end(),
                                 [length](const Route& r) {
                                   return r.prefix.length() >= length;
                                 });
    ASSERT_NE(it, routes.end());
    table.insert(it->prefix, make_next_hop(200));
    const auto retired = patch_to(flat, old_table, table, {it->prefix});
    EXPECT_TRUE(retired.empty()) << "/" << it->prefix.length();
  }
  EXPECT_EQ(flat.pool()->stats().allocated, pool_before.allocated);
  EXPECT_EQ(flat.memory_bytes(), bytes_before);
  expect_matches_trie(flat, table, probe_addresses(table, 2'000, 555));
}

TEST(FlatTableTest, HighHopsAndDictionaryGrowthKeepOldSnapshotsIntact) {
  // Hops at and above 2^31 (top bit = the entries' level-2 flag bit),
  // prefixes up to /32, and patches that intern hops the image never
  // saw, growing the hop array past its capacity: the image must stay
  // exact, and every growth hands the superseded array back in the
  // bundle (a reader may still hold it).
  Pcg32 rng(0xB16);
  const auto high_hop = [&rng] {
    return NextHop{0x8000'0000u | (rng.next() % 1'000)};
  };
  BinaryTrie table;
  while (table.size() < 800) {
    const Prefix candidate = random_prefix(rng, 8, 32);
    if (overlaps_any(table, candidate)) continue;
    table.insert(candidate, high_hop());
  }
  auto flat = std::make_unique<FlatLookupTable>(table);
  expect_matches_trie(*flat, table, probe_addresses(table, 2'000, 1));

  for (int round = 0; round < 20; ++round) {
    const BinaryTrie before = table;
    std::vector<Prefix> dirty;
    const auto routes = table.routes();
    for (int op = 0; op < 20; ++op) {
      const auto& victim = routes[rng.next() % routes.size()];
      if (!table.find(victim.prefix)) continue;
      if (op % 2 == 0) {
        table.erase(victim.prefix);
      } else {  // a never-seen hop: the dictionary must grow
        table.insert(victim.prefix,
                     NextHop{0xFFFF'0000u + static_cast<std::uint32_t>(
                                                round * 20 + op)});
      }
      dirty.push_back(victim.prefix);
    }
    patch_to(*flat, before, table, dirty);
    expect_matches_trie(*flat, table, probe_addresses(table, 500, round));
  }

  // Fifteen hops fill the first array (16 ids, id 0 = no route): the
  // next new hop grows it, and the old array is the bundle's only item.
  BinaryTrie small;
  for (std::uint32_t i = 1; i <= 15; ++i) {
    small.insert(Prefix(Ipv4Address(0x0A000000u + (i << 8)), 24),
                 NextHop{0x8000'0000u + i});
  }
  FlatLookupTable full(small);
  const BinaryTrie before = small;
  const Prefix first(Ipv4Address(0x0A000100u), 24);
  small.insert(first, NextHop{0xFFFF'FFFFu});
  const auto retired = patch_to(full, before, small, {first});
  EXPECT_FALSE(retired.empty());
  EXPECT_EQ(retired.blocks(), 0u);
  expect_matches_trie(full, small, probe_addresses(small, 100, 7));
}

TEST(FlatTableTest, SecondStageThrowsAndTheImageStaysExact) {
  const auto before = make_disjoint_table(1'000, 515);
  auto table = before;
  FlatLookupTable flat(before);
  const auto routes = table.routes();
  const Prefix touched = routes[routes.size() / 3].prefix;
  table.insert(touched, make_next_hop(250));
  const Diff diff = diff_between(before, table, {touched});

  // One staged patch at a time; staging writes nothing to the image.
  auto staged = flat.stage(diff.erases, diff.writes);
  EXPECT_THROW((void)flat.stage(diff.erases, diff.writes), std::logic_error);
  expect_matches_trie(flat, before, probe_addresses(before, 1'000, 616));

  flat.apply(std::move(staged));
  expect_matches_trie(flat, table, probe_addresses(table, 1'000, 717));
  // A dropped patch is discarded and frees the next stage.
  {
    const Diff undo = diff_between(table, before, {touched});
    auto dropped = flat.stage(undo.erases, undo.writes);
  }
  expect_matches_trie(flat, table, probe_addresses(table, 1'000, 818));
  // The image may still be patched (here by a rewrite of the same hop).
  EXPECT_TRUE(flat.apply(flat.stage({}, diff.writes)).empty());
  expect_matches_trie(flat, table, probe_addresses(table, 1'000, 919));
}

TEST(FlatTableTest, PredecessorsStayExactAcrossDictionaryGrowthAndL2Reuse) {
  // One /24 slot with long routes (a level-2 block) and one wide route.
  const Prefix a(Ipv4Address(0xC0A80100u), 26);
  const Prefix b(Ipv4Address(0xC0A80140u), 26);
  const Prefix wide(Ipv4Address(0x0B000000u), 16);
  BinaryTrie table;
  table.insert(a, make_next_hop(1));
  table.insert(b, make_next_hop(2));
  table.insert(wide, make_next_hop(3));
  FlatLookupTable flat(table);

  // Each round unlinks the previous round's level-2 block (its routes
  // are erased) and expands a fresh one in another slot under a next hop
  // the image never interned. While the rounds' bundles are held —
  // readers that began before a patch may still read what it unlinked —
  // no unlinked block or id is reused: every new block comes from new.
  std::vector<FlatLookupTable::Retired> held;
  Prefix long_route = a;
  for (std::uint32_t round = 1; round <= 12; ++round) {
    const BinaryTrie before = table;
    std::vector<Prefix> dirty;
    for (const Prefix& gone : {long_route, b}) {
      if (table.erase(gone)) dirty.push_back(gone);
    }
    long_route = Prefix(Ipv4Address(0xC0A90000u + (round << 8) + 0x80u), 25);
    table.insert(long_route, NextHop{0x9000'0000u + round});
    dirty.push_back(long_route);
    table.insert(wide, NextHop{0xA000'0000u + round});  // modify
    dirty.push_back(wide);
    held.push_back(patch_to(flat, before, table, dirty));
    EXPECT_EQ(held.back().blocks(), 1u);
    EXPECT_EQ(flat.l2_block_count(), 1u);
    expect_matches_trie(flat, table, probe_addresses(table, 64, round));
    EXPECT_EQ(flat.pool()->stats().recycled, 0u) << "round " << round;
  }

  // Grace over: the twelve blocks park, and the next expansion reuses
  // one (block and id) instead of calling new.
  held.clear();
  const auto parked = flat.pool()->stats();
  EXPECT_EQ(parked.bytes, 12 * 256 * sizeof(std::uint32_t));
  const BinaryTrie before = table;
  table.erase(long_route);
  const Prefix last(Ipv4Address(0xC0AA0040u), 26);
  table.insert(last, NextHop{0xB000'0000u});
  patch_to(flat, before, table, {long_route, last});
  EXPECT_EQ(flat.pool()->stats().recycled, parked.recycled + 1);
  EXPECT_EQ(flat.pool()->stats().allocated, parked.allocated);
  expect_matches_trie(flat, table, probe_addresses(table, 64, 13));
}

// One churn step over `table`: `ops` rounds of an erase or modify of a
// stored route plus a fresh insert of length min_len–30, so chunks drop
// to null, level-2 blocks come and go, and the dictionary grows.
// Returns the dirty prefixes.
std::vector<Prefix> churn_step(BinaryTrie& table, Pcg32& rng, int ops,
                               unsigned min_len) {
  std::vector<Prefix> dirty;
  const auto routes = table.routes();
  for (int op = 0; op < ops; ++op) {
    const auto& victim = routes[rng.next() % routes.size()];
    if (table.find(victim.prefix)) {
      if (op % 3 == 0) {
        table.erase(victim.prefix);
      } else {
        table.insert(victim.prefix, make_next_hop(1 + rng.next() % 4'000));
      }
      dirty.push_back(victim.prefix);
    }
    const Prefix candidate = random_prefix(rng, min_len, 30);
    if (overlaps_any(table, candidate)) continue;
    table.insert(candidate, make_next_hop(1 + rng.next() % 4'000));
    dirty.push_back(candidate);
  }
  return dirty;
}

TEST(FlatTableTest, RetiredBlocksAreParkedOnceAndNotBeforeTheirGracePeriod) {
  // A /12 fills one whole chunk; three /26s make one level-2 block in a
  // chunk of its own.
  const Prefix wide(Ipv4Address(0x0A000000u), 12);
  const std::vector<Prefix> quarters{Prefix(Ipv4Address(0xC0A80100u), 26),
                                     Prefix(Ipv4Address(0xC0A80140u), 26),
                                     Prefix(Ipv4Address(0xC0A80180u), 26)};
  BinaryTrie table;
  table.insert(wide, make_next_hop(1));
  for (const Prefix& p : quarters) table.insert(p, make_next_hop(2));
  FlatLookupTable flat(table);
  ASSERT_EQ(flat.chunk_count(), 2u);
  ASSERT_EQ(flat.l2_block_count(), 1u);

  // Erasing all of it unlinks both chunks and the block: one bundle.
  BinaryTrie before = table;
  table.erase(wide);
  for (const Prefix& p : quarters) table.erase(p);
  std::vector<Prefix> dirty = quarters;
  dirty.push_back(wide);
  auto retired = patch_to(flat, before, table, dirty);
  EXPECT_EQ(retired.blocks(), 3u);
  EXPECT_EQ(flat.chunk_count(), 0u);

  // Held (the grace period still running): nothing is parked, and a
  // patch that needs a chunk and a block takes them from new.
  const auto held = flat.pool()->stats();
  EXPECT_EQ(held.bytes, 0u);
  before = table;
  const Prefix fresh(Ipv4Address(0x2B000080u), 25);
  table.insert(fresh, make_next_hop(3));
  patch_to(flat, before, table, {fresh});
  EXPECT_EQ(flat.pool()->stats().recycled, held.recycled);
  EXPECT_EQ(flat.pool()->stats().allocated, held.allocated + 2);
  EXPECT_EQ(flat.pool()->stats().bytes, 0u);

  // Released: each block is parked exactly once (a second park would
  // double the bytes, and LSan/ASan would flag the double free).
  retired = FlatLookupTable::Retired();
  EXPECT_EQ(flat.pool()->stats().bytes,
            (2 * 4096 + 256) * sizeof(std::uint32_t));
  retired = FlatLookupTable::Retired();  // an empty bundle parks nothing
  EXPECT_EQ(flat.pool()->stats().bytes,
            (2 * 4096 + 256) * sizeof(std::uint32_t));

  // A stream whose bundles are held for four patches (the runtime's
  // grace): the pool never holds more than the released bundles parked,
  // and the image stays exact at every step while it recycles them.
  Pcg32 rng(0x9A7);
  BinaryTrie churn = make_disjoint_table(300, 0x9A8, 16);
  FlatLookupTable image(churn);
  std::deque<FlatLookupTable::Retired> window;
  for (int step = 1; step <= 100; ++step) {
    const BinaryTrie prev = churn;
    const auto changed = churn_step(churn, rng, 6, 16);
    window.push_back(patch_to(image, prev, churn, changed));
    if (window.size() > 4) window.pop_front();
    expect_matches_trie(image, churn, probe_addresses(churn, 16, step));
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(image.pool()->stats().recycled, 0u);
}

// Probes every address of the /24 under `inside` plus random ones across
// the /12 level-1 chunk around it.
std::vector<Ipv4Address> chunk_probes(Ipv4Address inside, std::uint64_t seed) {
  std::vector<Ipv4Address> probes;
  const std::uint32_t slot = inside.value() & 0xFFFF'FF00u;
  for (std::uint32_t i = 0; i < 256; ++i) probes.emplace_back(slot | i);
  Pcg32 rng(seed);
  const std::uint32_t chunk = inside.value() & 0xFFF0'0000u;
  for (int i = 0; i < 2'000; ++i) {
    probes.emplace_back(chunk | (rng.next() & 0x000F'FFFFu));
  }
  return probes;
}

TEST(FlatTableTest, RecycledBlocksReadNoRouteOutsideTheirNewRoute) {
  // A /12 fills one whole level-1 chunk (4096 /24 slots) with non-zero
  // entries. Clearing it unlinks the chunk, and releasing the bundle
  // parks it: the pool then holds that chunk alone.
  const Prefix wide(Ipv4Address(0x0A000000u), 12);
  BinaryTrie table;
  table.insert(wide, make_next_hop(1));
  FlatLookupTable flat(table);
  BinaryTrie before = table;
  table.erase(wide);
  patch_to(flat, before, table, {wide});
  const auto parked = flat.pool()->stats();
  EXPECT_EQ(parked.bytes, 4096 * sizeof(std::uint32_t));

  // A /20 in another null chunk takes the parked chunk: it must read
  // kNoRoute everywhere but the /20, not the /12's stale entries.
  const Prefix narrow(Ipv4Address(0x2B000000u), 20);
  before = table;
  table.insert(narrow, make_next_hop(3));
  patch_to(flat, before, table, {narrow});
  EXPECT_EQ(flat.pool()->stats().recycled, parked.recycled + 1);
  expect_matches_trie(flat, table, chunk_probes(narrow.range_low(), 5));

  // Three /26s fill 3/4 of one level-2 block; erasing them unlinks it,
  // and releasing that bundle parks it.
  const std::vector<Prefix> quarters{Prefix(Ipv4Address(0xC0A80100u), 26),
                                     Prefix(Ipv4Address(0xC0A80140u), 26),
                                     Prefix(Ipv4Address(0xC0A80180u), 26)};
  before = table;
  for (const Prefix& p : quarters) table.insert(p, make_next_hop(2));
  patch_to(flat, before, table, quarters);
  before = table;
  for (const Prefix& p : quarters) table.erase(p);
  patch_to(flat, before, table, quarters);

  // A /25 painted under a /24 dirty region takes the parked level-2
  // block: its other half must read kNoRoute, not the /26s' hop.
  const Prefix half(Ipv4Address(0x2C000100u), 25);
  before = table;
  table.insert(half, make_next_hop(4));
  const auto pooled = flat.pool()->stats();
  patch_to(flat, before, table, {Prefix(half.range_low(), 24)});
  EXPECT_EQ(flat.l2_block_count(), 1u);
  EXPECT_GT(flat.pool()->stats().recycled, pooled.recycled);
  expect_matches_trie(flat, table, chunk_probes(half.range_low(), 6));
}

// Runs 200 churn steps on one image, holding each patch's bundle for
// `window` more steps (0: released at once), and checks after every
// step that the image answers exactly. A block parked while the image
// still reads it would be poisoned under ASan, and reused blocks would
// answer wrong.
void run_chain(std::size_t window, std::uint64_t seed) {
  Pcg32 rng(seed);
  BinaryTrie table = make_disjoint_table(150, seed + 1, 16);
  FlatLookupTable flat(table);
  std::deque<FlatLookupTable::Retired> held;
  for (int step = 1; step <= 200; ++step) {
    const BinaryTrie before = table;
    const auto dirty = churn_step(table, rng, 6, 16);
    held.push_back(patch_to(flat, before, table, dirty));
    while (held.size() > window) held.pop_front();
    expect_matches_trie(flat, table, probe_addresses(table, 32, step));
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(flat.pool()->stats().recycled, 0u);
}

TEST(FlatTableTest, TwoHundredStepChainNeverParksALiveBlock) {
  // Bundles held four patches long, as the runtime's grace period does.
  run_chain(4, 1'201);
  // Released at once: the next patch takes the blocks straight back.
  run_chain(0, 1'203);
}

TEST(FlatTableTest, MigrationSizedRebuildLeavesThePoolAtItsCap) {
  // Thousands of dirty prefixes, as when a rebalance moves a band of
  // routes off a chip: far more chunks and level-2 blocks are unlinked
  // than the pool keeps, and the rest must be freed (LSan checks).
  auto table = make_disjoint_table(3'000, 1'301);
  FlatLookupTable flat(table);
  ASSERT_GT(flat.chunk_count(), FlatLookupTable::BlockPool::kMaxChunks);
  ASSERT_GT(flat.l2_block_count(), FlatLookupTable::BlockPool::kMaxL2Blocks);
  std::vector<Prefix> dirty;
  BinaryTrie old_table = table;
  const auto routes = table.routes();
  for (std::size_t i = 0; i < routes.size(); ++i) {
    if (i % 4 == 0) continue;  // keep a quarter
    table.erase(routes[i].prefix);
    dirty.push_back(routes[i].prefix);
  }
  {
    const auto retired = patch_to(flat, old_table, table, dirty);
    EXPECT_GT(retired.blocks(), FlatLookupTable::BlockPool::kMaxChunks +
                                    FlatLookupTable::BlockPool::kMaxL2Blocks);
    EXPECT_EQ(flat.pool()->stats().bytes, 0u);  // held: nothing parked
  }

  // 64 chunks of 4096 entries and 256 level-2 blocks of 256 entries.
  constexpr std::size_t kCapBytes =
      (FlatLookupTable::BlockPool::kMaxChunks * 4096 +
       FlatLookupTable::BlockPool::kMaxL2Blocks * 256) *
      sizeof(std::uint32_t);
  EXPECT_EQ(flat.pool()->stats().bytes, kCapBytes);
  expect_matches_trie(flat, table, probe_addresses(table, 4'000, 1'302));

  // The next patch draws on the full pool instead of new: a long route
  // back into a /24 slot that is empty now needs a fresh level-2 block.
  const auto back = std::find_if(
      routes.begin() + 1, routes.end(), [&table](const Route& r) {
        const Prefix slot(r.prefix.range_low(), 24);
        return r.prefix.length() > 24 && !overlaps_any(table, slot);
      });
  ASSERT_NE(back, routes.end());
  const auto before = flat.pool()->stats();
  old_table = table;
  table.insert(back->prefix, back->next_hop);
  patch_to(flat, old_table, table, {back->prefix});
  const auto after = flat.pool()->stats();
  EXPECT_GT(after.recycled, before.recycled);
  EXPECT_EQ(after.allocated, before.allocated);
  expect_matches_trie(flat, table, probe_addresses(table, 2'000, 1'303));
}

// ---------------------------------------------------------------------------
// The diff constructor against the ground truth.

// Prefixes concentrated in a few /16s and at the lengths where level-1,
// level-2 and collapsed slots meet, plus an occasional prefix anywhere.
Prefix hot_prefix(Pcg32& rng) {
  static constexpr std::uint32_t kBases[] = {0x0A010000u, 0x0A020000u,
                                             0xAC100000u, 0xC0A80000u};
  static constexpr unsigned kLengths[] = {8,  12, 16, 20, 23, 24, 24, 24,
                                          25, 25, 25, 26, 28, 30, 32, 32};
  const unsigned length = kLengths[rng.next() % std::size(kLengths)];
  const std::uint32_t bits = rng.next() % 8 == 0
                                 ? rng.next()
                                 : kBases[rng.next() % std::size(kBases)] |
                                       (rng.next() & 0xFFFFu);
  return Prefix(Ipv4Address(bits), length);
}

NextHop random_hop(Pcg32& rng) { return make_next_hop(1 + rng.next() % 6); }

// The stored shapes of `table` that a region clear removes: the route
// covering `region`, if any, else every route within it.
std::vector<Prefix> shapes_under(const BinaryTrie& table,
                                 const Prefix& region) {
  const auto cover = table.lookup_route(region.range_low());
  if (cover && cover->prefix.length() <= region.length()) {
    return {cover->prefix};
  }
  std::vector<Prefix> out;
  for (const auto& route : table.routes_within(region)) {
    out.push_back(route.prefix);
  }
  return out;
}

// One random work item over `table` (edited to match): an erase phase of
// stored shapes — single routes, /24 slots, /12 chunks, or everything —
// then a write phase of, on an empty table, /0, and rewrites, fresh
// inserts, re-inserts of erased shapes and /24 slots tiled by one hop at
// /25–/32 (a block that collapses). Erases come first, as the
// constructor applies them.
Diff random_work(BinaryTrie& table, Pcg32& rng) {
  Diff diff;
  const auto erase_shape = [&](const Prefix& prefix) {
    if (table.erase(prefix)) diff.erases.push_back(prefix);
  };
  const unsigned erase_ops = rng.next() % 4;
  for (unsigned op = 0; op < erase_ops; ++op) {
    const auto routes = table.routes();
    if (routes.empty()) break;
    const Prefix& victim = routes[rng.next() % routes.size()].prefix;
    switch (rng.next() % 16) {
      case 0:  // the victim's whole level-1 chunk
        for (const Prefix& p :
             shapes_under(table, Prefix(victim.range_low(), 12))) {
          erase_shape(p);
        }
        break;
      case 1:  // the victim's /24 slot
        for (const Prefix& p :
             shapes_under(table, Prefix(victim.range_low(), 24))) {
          erase_shape(p);
        }
        break;
      case 2:  // everything, now and then
        if (rng.next() % 8 == 0) {
          for (const auto& route : routes) erase_shape(route.prefix);
        }
        break;
      default:
        erase_shape(victim);
    }
  }
  const std::vector<Prefix> erased = diff.erases;
  const auto write = [&](const Prefix& prefix, NextHop hop) {
    table.insert(prefix, hop);
    diff.writes.push_back(Route{prefix, hop});
  };
  // An empty table now and then takes the default route (which fills all
  // 4096 chunks, so not too often).
  if (table.size() == 0 && rng.next() % 4 == 0) {
    write(Prefix(Ipv4Address(0), 0), random_hop(rng));
  }
  const unsigned write_ops = rng.next() % 5;
  for (unsigned op = 0; op < write_ops; ++op) {
    const auto routes = table.routes();
    switch (rng.next() % 7) {
      case 0:  // rewrite a stored route's hop (or keep it: still a write)
        if (!routes.empty()) {
          write(routes[rng.next() % routes.size()].prefix, random_hop(rng));
        }
        break;
      case 1:  // re-insert a shape this item erased, if still free
        if (!erased.empty()) {
          const Prefix& prefix = erased[rng.next() % erased.size()];
          if (!overlaps_any(table, prefix)) write(prefix, random_hop(rng));
        }
        break;
      case 2: {  // tile a free /24 with one hop: a uniform block
        const Prefix slot(hot_prefix(rng).range_low(), 24);
        if (overlaps_any(table, slot)) break;
        const unsigned length = 25 + rng.next() % 8;
        const NextHop hop = random_hop(rng);
        const std::uint32_t step = 1u << (32 - length);
        for (std::uint32_t i = 0; i < (1u << (length - 24)); ++i) {
          write(Prefix(Ipv4Address(slot.range_low().value() + i * step),
                       length),
                hop);
        }
        break;
      }
      default: {  // a fresh insert
        const Prefix candidate = hot_prefix(rng);
        if (!overlaps_any(table, candidate)) {
          write(candidate, random_hop(rng));
        }
      }
    }
  }
  return diff;
}

// Everything the image answers, against the trie it must equal and a
// full build of that trie: hops and shapes at sampled addresses and at
// every route's edges, the stored shapes within random regions, the
// route count, the walks from either end, and the canonical layout.
void expect_image_equals(const FlatLookupTable& flat, const BinaryTrie& table,
                         const Diff& diff, Pcg32& rng) {
  const auto routes = table.routes();
  ASSERT_EQ(flat.route_count(), table.size());
  std::vector<Ipv4Address> probes = probe_addresses(table, 256, rng.next());
  for (const Prefix& p : diff.erases) {
    probes.push_back(p.range_low());
    probes.push_back(p.range_high());
  }
  for (int i = 0; i < 256; ++i) probes.push_back(hot_prefix(rng).range_low());
  expect_matches_trie(flat, table, probes);
  if (testing::Test::HasFatalFailure()) return;

  std::vector<Prefix> regions;
  for (int i = 0; i < 12; ++i) regions.push_back(hot_prefix(rng));
  regions.push_back(Prefix(Ipv4Address(rng.next()), rng.next() % 9));
  for (const Prefix& p : diff.erases) regions.push_back(p);
  for (const Route& r : diff.writes) regions.push_back(r.prefix);
  for (const Prefix& region : regions) {
    const auto inside = table.routes_within(region);
    ASSERT_EQ(flat.stored_within(region), inside)
        << "region " << region.to_string();
    // The runs at either end.
    const std::size_t n = std::min<std::size_t>(1 + rng.next() % 4,
                                                inside.size());
    ASSERT_EQ(flat.stored_within(region, n),
              std::vector<Route>(inside.begin(), inside.begin() + n));
    ASSERT_EQ(flat.stored_within(region, n, true),
              std::vector<Route>(inside.end() - n, inside.end()));
  }

  ASSERT_EQ(flat.stored_within(Prefix()), routes);
  const std::size_t k = std::min<std::size_t>(1 + rng.next() % 16,
                                              routes.size());
  const std::vector<Route> head(routes.begin(), routes.begin() + k);
  const std::vector<Route> tail(routes.end() - k, routes.end());
  ASSERT_EQ(flat.stored_within(Prefix(), k), head);
  ASSERT_EQ(flat.stored_within(Prefix(), k, true), tail);

  const FlatLookupTable full(table);
  ASSERT_EQ(full.route_count(), table.size());
  ASSERT_EQ(flat.chunk_count(), full.chunk_count());
  ASSERT_EQ(flat.l2_block_count(), full.l2_block_count());
  for (const auto address : probes) {
    ASSERT_EQ(flat.lookup(address), full.lookup(address))
        << "address " << address.to_string();
  }
}

// How often a stream hit each case the diff paint must handle.
struct StreamCoverage {
  std::size_t default_routes = 0;   ///< items writing /0
  std::size_t erase_rewrites = 0;   ///< items erasing then rewriting a shape
  std::size_t in_place = 0;         ///< items rewriting a kept shape's hop
  std::size_t collapsed = 0;        ///< images holding a collapsed slot
  std::size_t re_expanded = 0;      ///< items erasing or writing inside one
  std::size_t chunks_dropped = 0;   ///< items that left fewer chunks
};

// The /24 slots of `table` that hold routes longer than /24, and those
// of them tiled completely by one length and one hop: the slots a
// canonical image keeps as collapsed direct entries, not blocks.
struct LongSlots {
  std::set<std::uint32_t> all;
  std::set<std::uint32_t> collapsed;
};

LongSlots long_slots(const BinaryTrie& table) {
  LongSlots slots;
  for (const auto& route : table.routes()) {
    if (route.prefix.length() > 24) {
      slots.all.insert(route.prefix.range_low().value() >> 8);
    }
  }
  for (const std::uint32_t slot : slots.all) {
    const auto inside = table.routes_within(Prefix(Ipv4Address(slot << 8), 24));
    const unsigned length = inside.front().prefix.length();
    const bool tiled =
        inside.size() == (std::size_t{1} << (length - 24)) &&
        std::all_of(inside.begin(), inside.end(), [&](const Route& r) {
          return r.prefix.length() == length &&
                 r.next_hop == inside.front().next_hop;
        });
    if (tiled) slots.collapsed.insert(slot);
  }
  return slots;
}

// `prev_l2_blocks` and `prev_chunks`: the image's counts before `diff`.
void count_coverage(std::size_t prev_l2_blocks, std::size_t prev_chunks,
                    const FlatLookupTable& next, const BinaryTrie& before,
                    const Diff& diff, StreamCoverage& c) {
  const std::set<Prefix> erased(diff.erases.begin(), diff.erases.end());
  const LongSlots slots = long_slots(before);
  // Every long slot that is not collapsed holds one level-2 block.
  ASSERT_EQ(prev_l2_blocks, slots.all.size() - slots.collapsed.size());
  const auto in_collapsed = [&](const Prefix& p) {
    return p.length() > 24 &&
           slots.collapsed.contains(p.range_low().value() >> 8);
  };
  bool zero = false, erase_rewrite = false, in_place = false;
  bool expands = std::any_of(erased.begin(), erased.end(), in_collapsed);
  for (const Route& r : diff.writes) {
    zero |= r.prefix.length() == 0;
    erase_rewrite |= erased.contains(r.prefix);
    in_place |= !erased.contains(r.prefix) && before.find(r.prefix);
    expands |= in_collapsed(r.prefix);
  }
  c.default_routes += zero;
  c.erase_rewrites += erase_rewrite;
  c.in_place += in_place;
  c.collapsed += !slots.collapsed.empty();
  c.re_expanded += expands;
  c.chunks_dropped += next.chunk_count() < prev_chunks;
}

// Differential stream length: 250 steps per run, or CLUE_SOAK_UPDATES /
// 50 when that is more (the soak stage). The streams are seeded, so a
// longer run replays the default one first.
std::size_t diff_steps() {
  const char* env = std::getenv("CLUE_SOAK_UPDATES");
  const long long n = env ? std::atoll(env) : 0;
  return std::max<std::size_t>(250, n > 0 ? n / 50 : 0);
}

// Drives `steps` random work items through stage()/apply() on one
// image. With `hold`, each bundle is held for four more patches (the
// runtime's grace period); otherwise it is released at once, and every
// 32 steps the stream moves to a fresh full build of its table.
void run_diff_stream(bool hold, std::size_t steps, std::uint64_t seed,
                     StreamCoverage& coverage) {
  Pcg32 rng(seed);
  BinaryTrie table;
  while (table.size() < 300) {
    const Prefix candidate = hot_prefix(rng);
    if (!overlaps_any(table, candidate)) {
      table.insert(candidate, random_hop(rng));
    }
  }
  auto flat = std::make_unique<FlatLookupTable>(table);
  std::deque<FlatLookupTable::Retired> held;
  for (std::size_t step = 1; step <= steps; ++step) {
    const BinaryTrie before = table;
    const Diff diff = random_work(table, rng);
    const std::size_t l2_blocks = flat->l2_block_count();
    const std::size_t chunks = flat->chunk_count();
    held.push_back(patch(*flat, diff));
    count_coverage(l2_blocks, chunks, *flat, before, diff, coverage);
    if (testing::Test::HasFatalFailure()) return;
    expect_image_equals(*flat, table, diff, rng);
    if (testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "step " << step << " (seed " << seed << ")";
      return;
    }
    if (!hold) {
      held.clear();
      if (step % 32 == 0) flat = std::make_unique<FlatLookupTable>(table);
    } else if (held.size() > 4) {
      held.pop_front();
    }
  }
}

TEST(FlatTableTest, DiffStreamsMatchFullBuildsOfTheTrie) {
  const std::size_t steps = diff_steps();
  StreamCoverage coverage;
  run_diff_stream(true, steps, 1'801, coverage);
  run_diff_stream(false, steps, 1'802, coverage);
  // The streams reached every case they are meant to cover.
  EXPECT_GT(coverage.default_routes, 0u);
  EXPECT_GT(coverage.erase_rewrites, 0u);
  EXPECT_GT(coverage.in_place, 0u);
  EXPECT_GT(coverage.collapsed, 0u);
  EXPECT_GT(coverage.re_expanded, 0u);
  EXPECT_GT(coverage.chunks_dropped, 0u);
  std::printf("coverage: /0 %zu, erase+rewrite %zu, in-place %zu, "
              "collapsed %zu, re-expanded %zu, chunks dropped %zu\n",
              coverage.default_routes, coverage.erase_rewrites,
              coverage.in_place, coverage.collapsed, coverage.re_expanded,
              coverage.chunks_dropped);
}

// A probe's answer in one table state: 0 for no route, else the stored
// route's (length + 1) << 32 | hop — the prefix is Prefix(probe, length).
std::uint64_t packed(const std::optional<Route>& route) {
  if (!route) return 0;
  return (std::uint64_t{route->prefix.length()} + 1) << 32 |
         clue::netbase::to_index(route->next_hop);
}

TEST(FlatTableTest, ConcurrentReadersSeePreOrPostAnswerPerAddress) {
  // The stream: random_work items (erases, then writes: /0 on an empty
  // table, /32s, erases that punch holes in collapsed tiles, level-2
  // expansion and collapse, chunks dropped and re-created) plus, every
  // fourth patch, a rewrite under a hop the image never saw, so the hop
  // array grows past its capacity while readers run.
  Pcg32 rng(0xC0C0);
  BinaryTrie table;
  while (table.size() < 300) {
    const Prefix candidate = hot_prefix(rng);
    if (!overlaps_any(table, candidate)) {
      table.insert(candidate, random_hop(rng));
    }
  }
  const BinaryTrie initial = table;
  const std::size_t steps = diff_steps();
  std::vector<Diff> diffs;
  std::uint32_t new_hop = 0xF000'0000u;
  for (std::size_t k = 1; k <= steps; ++k) {
    Diff diff = random_work(table, rng);
    const auto routes = table.routes();
    if (k % 4 == 0 && !routes.empty()) {
      const Prefix target = routes[rng.next() % routes.size()].prefix;
      const NextHop hop{new_hop++};
      table.insert(target, hop);
      diff.writes.push_back(Route{target, hop});
    }
    diffs.push_back(std::move(diff));
  }
  // Probes: random addresses in the hot /16s plus the edges of prefixes
  // the stream touches, sampled evenly over it.
  std::vector<Ipv4Address> probes;
  for (int i = 0; i < 128; ++i) probes.push_back(hot_prefix(rng).range_low());
  for (std::size_t k = 0; k < diffs.size() && probes.size() < 384;
       k += 1 + diffs.size() / 128) {
    for (const Prefix& p : diffs[k].erases) {
      probes.push_back(p.range_low());
      probes.push_back(p.range_high());
    }
    for (const Route& r : diffs[k].writes) {
      probes.push_back(r.prefix.range_low());
      probes.push_back(r.prefix.range_high());
    }
  }
  // answers[k][i]: probe i's answer after k patches.
  std::vector<std::vector<std::uint64_t>> answers;
  table = initial;
  const auto record = [&] {
    answers.emplace_back();
    for (const auto address : probes) {
      answers.back().push_back(packed(table.lookup_route(address)));
    }
  };
  record();
  for (const Diff& diff : diffs) {
    for (const Prefix& p : diff.erases) table.erase(p);
    for (const Route& r : diff.writes) table.insert(r.prefix, r.next_hop);
    record();
  }

  FlatLookupTable flat(initial);
  clue::runtime::EpochDomain domain(2);
  // A reader's window: patches applied before its lookup began, to
  // patches started when it ended.
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> applied{0};
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> checked{0};
  std::atomic<std::uint64_t> overlapped{0};
  std::atomic<std::uint64_t> wrong{0};
  // Lookup groups each reader finished; the writer waits for both to
  // move between patches, so every patch lands among running lookups.
  std::array<std::atomic<std::uint64_t>, 2> progress{};
  const auto reader = [&](std::size_t slot) {
    std::uint64_t local_checked = 0;
    std::uint64_t local_overlapped = 0;
    std::uint64_t local_wrong = 0;
    while (!done.load(std::memory_order_acquire)) {
      for (std::size_t base = 0; base < probes.size(); base += 32) {
        // Pinned a few dozen lookups at a time, so the writer's reclaim
        // parks (and later patches reuse) unlinked blocks mid-run.
        clue::runtime::EpochDomain::Guard guard(domain, slot);
        const std::size_t end = std::min(probes.size(), base + 32);
        for (std::size_t i = base; i < end; ++i) {
          const std::size_t lo = applied.load(std::memory_order_seq_cst);
          const NextHop hop = flat.lookup(probes[i]);
          const std::uint64_t route = packed(flat.lookup_route(probes[i]));
          const std::size_t hi = started.load(std::memory_order_seq_cst);
          bool hop_seen = false;
          bool route_seen = false;
          for (std::size_t k = lo; k <= hi; ++k) {
            hop_seen |= static_cast<std::uint32_t>(answers[k][i]) ==
                        clue::netbase::to_index(hop);
            route_seen |= answers[k][i] == route;
          }
          local_wrong += !hop_seen || !route_seen;
          local_overlapped += hi > lo;
          ++local_checked;
        }
        progress[slot].fetch_add(1, std::memory_order_release);
      }
    }
    checked.fetch_add(local_checked);
    overlapped.fetch_add(local_overlapped);
    wrong.fetch_add(local_wrong);
  };
  const auto readers_moved = [&progress] {
    const std::uint64_t seen[2] = {progress[0].load(), progress[1].load()};
    for (std::size_t r = 0; r < 2; ++r) {
      while (progress[r].load(std::memory_order_acquire) == seen[r]) {
        std::this_thread::yield();
      }
    }
  };
  std::thread first(reader, 0);
  std::thread second(reader, 1);
  readers_moved();

  std::uint64_t retired_blocks = 0;
  for (std::size_t k = 1; k <= diffs.size(); ++k) {
    auto staged = flat.stage(diffs[k - 1].erases, diffs[k - 1].writes);
    started.store(k, std::memory_order_seq_cst);
    auto retired = flat.apply(std::move(staged));
    applied.store(k, std::memory_order_seq_cst);
    retired_blocks += retired.blocks();
    if (!retired.empty()) {
      domain.retire(new FlatLookupTable::Retired(std::move(retired)));
    }
    domain.reclaim();
    readers_moved();
  }
  done.store(true, std::memory_order_release);
  first.join();
  second.join();

  EXPECT_EQ(wrong.load(), 0u) << "of " << checked.load() << " lookups";
  EXPECT_GT(retired_blocks, 0u);
  EXPECT_GT(flat.pool()->stats().recycled, 0u);
  table = initial;
  for (const Diff& diff : diffs) {
    for (const Prefix& p : diff.erases) table.erase(p);
    for (const Route& r : diff.writes) table.insert(r.prefix, r.next_hop);
  }
  expect_matches_trie(flat, table, probe_addresses(table, 1'000, 3));
  std::printf("concurrent: %zu patches, %llu lookups, %llu overlapping one\n",
              diffs.size(), static_cast<unsigned long long>(checked.load()),
              static_cast<unsigned long long>(overlapped.load()));
}

TEST(FlatTableTest, ViolatingDiffsThrowAndLeaveThePredecessorUntouched) {
  BinaryTrie table;
  const Prefix wide(Ipv4Address(0x0A000000u), 16);     // level-1 run
  const Prefix quarter(Ipv4Address(0xC0A80100u), 26);  // in a block
  table.insert(wide, make_next_hop(1));
  table.insert(quarter, make_next_hop(2));
  // A /24 tiled by two same-hop /25s: a collapsed level-1 entry.
  const Prefix half_lo(Ipv4Address(0xC0A80200u), 25);
  const Prefix half_hi(Ipv4Address(0xC0A80280u), 25);
  table.insert(half_lo, make_next_hop(3));
  table.insert(half_hi, make_next_hop(3));
  FlatLookupTable flat(table);
  ASSERT_EQ(flat.l2_block_count(), 1u);  // the /25 pair collapsed
  const auto probes = probe_addresses(table, 500, 19);
  // Everything the image answers or reports, to compare bit for bit.
  const auto snapshot = [&flat, &probes] {
    std::vector<std::optional<Route>> answers;
    for (const auto address : probes) {
      answers.push_back(flat.lookup_route(address));
    }
    return std::make_tuple(answers, flat.stored_within(Prefix()),
                           flat.route_count(), flat.chunk_count(),
                           flat.l2_block_count(), flat.memory_bytes());
  };
  const auto untouched = snapshot();

  const Route good{Prefix(Ipv4Address(0x0B000000u), 24), make_next_hop(4)};
  struct Case {
    const char* what;
    std::vector<Prefix> erases;
    std::vector<Route> writes;
  };
  const std::vector<Case> cases = {
      {"erase of a free prefix", {Prefix(Ipv4Address(0x0C000000u), 24)}, {}},
      {"erase of a stored route's parent", {Prefix(wide.range_low(), 15)}, {}},
      {"erase of a stored route's child", {Prefix(wide.range_low(), 17)}, {}},
      {"erase inside a block at the wrong length",
       {Prefix(quarter.range_low(), 27)},
       {}},
      {"erase of a collapsed tile's /24", {Prefix(half_lo.range_low(), 24)},
       {}},
      {"the same erase twice", {quarter, quarter}, {}},
      {"write under a stored route",
       {},
       {Route{Prefix(Ipv4Address(0x0A008000u), 20), make_next_hop(5)}}},
      {"write over stored routes",
       {},
       {Route{Prefix(Ipv4Address(0x0A000000u), 8), make_next_hop(5)}}},
      {"write whose later slots are taken",
       {},
       {Route{Prefix(Ipv4Address(0xC0A80000u), 22), make_next_hop(5)}}},
      {"write into a block over a stored route",
       {},
       {Route{Prefix(Ipv4Address(0xC0A80100u), 25), make_next_hop(5)}}},
      {"write into a collapsed tile at another length",
       {},
       {Route{Prefix(half_hi.range_low(), 26), make_next_hop(5)}}},
      // Valid work first, so the stage has taken and painted blocks
      // before it meets the violation.
      {"a violation after valid work",
       {quarter, half_lo},
       {good, Route{Prefix(Ipv4Address(0x0A000000u), 12), make_next_hop(5)}}},
  };
  for (const Case& c : cases) {
    EXPECT_THROW((void)flat.stage(c.erases, c.writes), std::invalid_argument)
        << c.what;
    ASSERT_TRUE(snapshot() == untouched) << c.what;
    expect_matches_trie(flat, table, probes);
  }

  // Still patchable: a rewrite, an erase inside the collapsed tile
  // (re-expanding it) and an insert.
  flat.apply(flat.stage(std::vector<Prefix>{half_hi},
                        std::vector<Route>{good, {wide, make_next_hop(6)}}));
  table.erase(half_hi);
  table.insert(good.prefix, good.next_hop);
  table.insert(wide, make_next_hop(6));
  expect_matches_trie(flat, table, probe_addresses(table, 500, 20));
  EXPECT_EQ(flat.route_count(), table.size());
}

}  // namespace
