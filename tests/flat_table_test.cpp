// FlatLookupTable differential fuzz: the flat direct-index image must
// agree with the authoritative BinaryTrie — next hop *and* stored route
// shape (prefix, length, hop) — and with TcamChip's honest O(capacity)
// search_linear scan over randomized non-overlapping tables, including
// copy-on-write rebuilds after inserts, deletes, modifies, and simulated
// boundary migrations — plus the version-ownership contract: one
// successor per image, a predecessor readable while its successor lives,
// and either drop order freeing each block exactly once (the ASan stage
// runs this file with LeakSanitizer on) — and the lineage's block pool:
// recycled blocks start clean, a parked block is never one a live
// version still reads, and the pool stops at its cap — plus the diff
// constructor's own contract: random erase/write streams checked step by
// step against a full build from the ground-truth trie (stream length
// scales with CLUE_SOAK_UPDATES; see ci/check.sh's soak stage), and
// violating diffs rejected with the predecessor untouched.
#include "engine/flat_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

#include "netbase/prefix.hpp"
#include "netbase/rng.hpp"
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

// A diff in the successor constructor's terms.
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

// The successor of `prev` (an image of `before`) that images `after`.
std::unique_ptr<FlatLookupTable> successor(const FlatLookupTable& prev,
                                           const BinaryTrie& before,
                                           const BinaryTrie& after,
                                           const std::vector<Prefix>& dirty) {
  const Diff diff = diff_between(before, after, dirty);
  return std::make_unique<FlatLookupTable>(prev, diff.erases, diff.writes);
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
    auto next = successor(*flat, before, table, dirty);
    flat = std::move(next);

    // The incremental snapshot must agree with the trie and with a
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
  // Receiver publishes fat first, donor shrinks after — both rebuilds
  // take the migrated prefixes as their dirty set.
  receiver_flat =
      successor(*receiver_flat, receiver_before, receiver, migrated);
  donor_flat = successor(*donor_flat, donor_before, donor, migrated);

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
  flat = successor(*flat, before, table, dirty);
  // Uniform collapse frees the level-2 block; whole-chunk clears drop
  // the chunks back to the null representation.
  EXPECT_EQ(flat->l2_block_count(), 0u);
  EXPECT_EQ(flat->chunk_count(), 0u);
  expect_matches_trie(*flat, table, probe_addresses(table, 2'000, 321));
}

TEST(FlatTableTest, SharesUntouchedChunksWithPreviousSnapshot) {
  auto table = make_disjoint_table(2'000, 444);
  const FlatLookupTable base(table);

  // One surgical modify: the rebuild may copy only chunks under it.
  const BinaryTrie old_table = table;
  const auto routes = table.routes();
  const Prefix touched = routes[routes.size() / 2].prefix;
  table.insert(touched, make_next_hop(200));
  const Diff diff = diff_between(old_table, table, {touched});
  const FlatLookupTable next(base, diff.erases, diff.writes);

  const std::size_t before = base.memory_bytes();
  const std::size_t after = next.memory_bytes();
  // Shared chunks are counted in both snapshots; the delta between the
  // two must be far below one full rebuild's worth of chunks.
  EXPECT_LT(after, before + (before / 4) + 64 * 1024);
  expect_matches_trie(next, table, probe_addresses(table, 2'000, 555));
}

TEST(FlatTableTest, HighHopsAndDictionaryGrowthKeepOldSnapshotsIntact) {
  // Hops at and above 2^31 (top bit = the entries' level-2 flag bit),
  // prefixes up to /32, and COW rebuilds that intern hops the
  // predecessor never saw: the predecessor must keep answering from its
  // own dictionary.
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
    auto next = successor(*flat, before, table, dirty);
    expect_matches_trie(*flat, before, probe_addresses(before, 500, round));
    expect_matches_trie(*next, table, probe_addresses(table, 500, round));
    flat = std::move(next);
  }
}

TEST(FlatTableTest, SecondSuccessorThrowsAndBothImagesStayExact) {
  const auto before = make_disjoint_table(1'000, 515);
  auto table = before;
  const FlatLookupTable base(before);
  const auto routes = table.routes();
  const Prefix touched = routes[routes.size() / 3].prefix;
  table.insert(touched, make_next_hop(250));
  const Diff diff = diff_between(before, table, {touched});

  const FlatLookupTable next(base, diff.erases, diff.writes);
  EXPECT_THROW(FlatLookupTable(base, diff.erases, diff.writes),
               std::logic_error);

  expect_matches_trie(base, before, probe_addresses(before, 1'000, 616));
  expect_matches_trie(next, table, probe_addresses(table, 1'000, 717));
  // The successor itself may still be succeeded (here by a rewrite of the
  // same hop).
  const FlatLookupTable after(next, {}, diff.writes);
  expect_matches_trie(after, table, probe_addresses(table, 1'000, 818));
}

TEST(FlatTableTest, PredecessorsStayExactAcrossDictionaryGrowthAndL2Reuse) {
  // One /24 slot with long routes (a level-2 block) and one wide route.
  const Prefix a(Ipv4Address(0xC0A80100u), 26);
  const Prefix b(Ipv4Address(0xC0A80140u), 26);
  const Prefix wide(Ipv4Address(0x0B000000u), 16);
  std::vector<BinaryTrie> tables(1);
  tables[0].insert(a, make_next_hop(1));
  tables[0].insert(b, make_next_hop(2));
  tables[0].insert(wide, make_next_hop(3));
  std::vector<std::unique_ptr<FlatLookupTable>> versions;
  versions.push_back(std::make_unique<FlatLookupTable>(tables[0]));

  // Each round releases the previous round's level-2 block (its /26s
  // are erased) and allocates a fresh one in another slot — the freed
  // id is reused — under a next hop no earlier version interned.
  Prefix long_route = a;
  for (std::uint32_t round = 1; round <= 12; ++round) {
    BinaryTrie table = tables.back();
    std::vector<Prefix> dirty;
    for (const Prefix& gone : {long_route, b}) {
      if (table.erase(gone)) dirty.push_back(gone);
    }
    long_route = Prefix(Ipv4Address(0xC0A90000u + (round << 8) + 0x80u), 25);
    table.insert(long_route, NextHop{0x9000'0000u + round});
    dirty.push_back(long_route);
    table.insert(wide, NextHop{0xA000'0000u + round});  // modify
    dirty.push_back(wide);
    versions.push_back(successor(*versions.back(), tables.back(), table, dirty));
    tables.push_back(std::move(table));
    EXPECT_EQ(versions.back()->l2_block_count(), 1u);

    // Every version in the chain still answers from its own image.
    for (std::size_t v = 0; v < versions.size(); ++v) {
      expect_matches_trie(*versions[v], tables[v],
                          probe_addresses(tables[v], 64, v));
    }
  }
}

// A chain of COW versions over random churn, and the head's table.
struct VersionChain {
  std::vector<std::unique_ptr<FlatLookupTable>> versions;
  BinaryTrie head_table;
};

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

VersionChain make_version_chain(std::size_t length, std::uint64_t seed) {
  Pcg32 rng(seed);
  VersionChain chain{{}, make_disjoint_table(600, seed)};
  BinaryTrie& table = chain.head_table;
  auto& versions = chain.versions;
  versions.push_back(std::make_unique<FlatLookupTable>(table));
  while (versions.size() < length) {
    const BinaryTrie before = table;
    const auto dirty = churn_step(table, rng, 30, 8);
    versions.push_back(successor(*versions.back(), before, table, dirty));
  }
  return chain;
}

TEST(FlatTableTest, DroppingVersionsInEitherOrderFreesEachBlockOnce) {
  // Successor first: the head frees its live set, then each predecessor
  // frees only what its successor replaced.
  auto newest_first = make_version_chain(8, 901);
  expect_matches_trie(*newest_first.versions.back(), newest_first.head_table,
                      probe_addresses(newest_first.head_table, 1'000, 1));
  while (!newest_first.versions.empty()) newest_first.versions.pop_back();

  // Predecessor first — the runtime's order — with the head answering
  // exactly after every drop.
  auto oldest_first = make_version_chain(8, 902);
  auto& versions = oldest_first.versions;
  const auto probes = probe_addresses(oldest_first.head_table, 1'000, 2);
  while (!versions.empty()) {
    expect_matches_trie(*versions.back(), oldest_first.head_table, probes);
    versions.erase(versions.begin());
  }
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
  // entries. Clearing it drops the chunk to null, and dropping the old
  // version parks it: the pool then holds that chunk alone.
  const Prefix wide(Ipv4Address(0x0A000000u), 12);
  BinaryTrie table;
  table.insert(wide, make_next_hop(1));
  auto flat = std::make_unique<FlatLookupTable>(table);
  BinaryTrie before = table;
  table.erase(wide);
  auto next = successor(*flat, before, table, {wide});
  flat = std::move(next);
  const auto parked = flat->pool()->stats();
  EXPECT_EQ(parked.bytes, 4096 * sizeof(std::uint32_t));

  // A /20 in another null chunk takes the parked chunk: it must read
  // kNoRoute everywhere but the /20, not the /12's stale entries.
  const Prefix narrow(Ipv4Address(0x2B000000u), 20);
  before = table;
  table.insert(narrow, make_next_hop(3));
  next = successor(*flat, before, table, {narrow});
  flat = std::move(next);
  EXPECT_EQ(flat->pool()->stats().recycled, parked.recycled + 1);
  expect_matches_trie(*flat, table, chunk_probes(narrow.range_low(), 5));

  // Three /26s fill 3/4 of one level-2 block; erasing them releases it,
  // and dropping that version parks it.
  const std::vector<Prefix> quarters{Prefix(Ipv4Address(0xC0A80100u), 26),
                                     Prefix(Ipv4Address(0xC0A80140u), 26),
                                     Prefix(Ipv4Address(0xC0A80180u), 26)};
  before = table;
  for (const Prefix& p : quarters) table.insert(p, make_next_hop(2));
  next = successor(*flat, before, table, quarters);
  flat = std::move(next);
  before = table;
  for (const Prefix& p : quarters) table.erase(p);
  next = successor(*flat, before, table, quarters);
  flat = std::move(next);

  // A /25 painted under a /24 dirty region takes the parked level-2
  // block: its other half must read kNoRoute, not the /26s' hop.
  const Prefix half(Ipv4Address(0x2C000100u), 25);
  before = table;
  table.insert(half, make_next_hop(4));
  const auto pooled = flat->pool()->stats();
  next = successor(*flat, before, table, {Prefix(half.range_low(), 24)});
  flat = std::move(next);
  EXPECT_EQ(flat->l2_block_count(), 1u);
  EXPECT_GT(flat->pool()->stats().recycled, pooled.recycled);
  expect_matches_trie(*flat, table, chunk_probes(half.range_low(), 6));
}

// A live version of a chain: checked against its trie when built, and
// against the routes recorded then on every later step (cheaper than a
// trie walk per probe, and the same answer).
struct LiveVersion {
  std::unique_ptr<FlatLookupTable> flat;
  std::vector<Ipv4Address> probes;
  std::vector<std::optional<clue::netbase::Route>> expected;
};

LiveVersion make_live(std::unique_ptr<FlatLookupTable> flat,
                      const BinaryTrie& table, std::uint64_t seed) {
  LiveVersion v{std::move(flat), probe_addresses(table, 32, seed), {}};
  expect_matches_trie(*v.flat, table, v.probes);
  for (const auto address : v.probes) {
    v.expected.push_back(table.lookup_route(address));
  }
  return v;
}

void expect_all_live_match(const std::deque<LiveVersion>& live, int step) {
  for (const auto& v : live) {
    for (std::size_t i = 0; i < v.probes.size(); ++i) {
      ASSERT_EQ(v.flat->lookup_route(v.probes[i]), v.expected[i])
          << "step " << step << " address " << v.probes[i].to_string();
    }
  }
}

// Builds a 200-step chain over churn; after every step every live
// version answers exactly. `window` > 0 drops the oldest version once
// more than `window` are alive (the runtime's order); 0 keeps them all
// and drops the head first at the end (the standalone order). Routes are
// /16 or longer, so keeping all 200 versions stays small.
void run_chain(std::size_t window, std::uint64_t seed) {
  Pcg32 rng(seed);
  BinaryTrie table = make_disjoint_table(150, seed + 1, 16);
  std::deque<LiveVersion> live;
  live.push_back(
      make_live(std::make_unique<FlatLookupTable>(table), table, 0));
  for (int step = 1; step <= 200; ++step) {
    const BinaryTrie before = table;
    const auto dirty = churn_step(table, rng, 6, 16);
    live.push_back(make_live(successor(*live.back().flat, before, table, dirty),
                             table, step));
    if (window > 0 && live.size() > window) live.pop_front();
    expect_all_live_match(live, step);
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(live.back().flat->pool()->stats().recycled, 0u);
  while (!live.empty()) live.pop_back();
}

TEST(FlatTableTest, TwoHundredStepChainNeverParksALiveBlock) {
  // Oldest first: each dropped version parks what its successor
  // replaced, and the next builds take those blocks.
  run_chain(4, 1'201);
  // Newest first: while the chain grows only blocks a build discarded
  // itself are parked; at the end the head frees its live set and each
  // predecessor parks its replaced set. ASan/LSan check that every block
  // is released exactly once.
  run_chain(0, 1'203);
}

TEST(FlatTableTest, MigrationSizedRebuildLeavesThePoolAtItsCap) {
  // Thousands of dirty prefixes, as when a rebalance moves a band of
  // routes off a chip: far more chunks and level-2 blocks are replaced
  // than the pool keeps, and the rest must be freed (LSan checks).
  auto table = make_disjoint_table(3'000, 1'301);
  auto old = std::make_unique<FlatLookupTable>(table);
  ASSERT_GT(old->chunk_count(), FlatLookupTable::BlockPool::kMaxChunks);
  ASSERT_GT(old->l2_block_count(), FlatLookupTable::BlockPool::kMaxL2Blocks);
  std::vector<Prefix> dirty;
  BinaryTrie old_table = table;
  const auto routes = table.routes();
  for (std::size_t i = 0; i < routes.size(); ++i) {
    if (i % 4 == 0) continue;  // keep a quarter
    table.erase(routes[i].prefix);
    dirty.push_back(routes[i].prefix);
  }
  auto flat = successor(*old, old_table, table, dirty);
  old.reset();

  // 64 chunks of 4096 entries and 256 level-2 blocks of 256 entries.
  constexpr std::size_t kCapBytes =
      (FlatLookupTable::BlockPool::kMaxChunks * 4096 +
       FlatLookupTable::BlockPool::kMaxL2Blocks * 256) *
      sizeof(std::uint32_t);
  EXPECT_EQ(flat->pool()->stats().bytes, kCapBytes);
  expect_matches_trie(*flat, table, probe_addresses(table, 4'000, 1'302));

  // The next build draws on the full pool instead of new.
  const auto before = flat->pool()->stats();
  const Prefix back = routes[1].prefix;
  old_table = table;
  table.insert(back, routes[1].next_hop);
  const Diff diff = diff_between(old_table, table, {back});
  const FlatLookupTable next(*flat, diff.erases, diff.writes);
  const auto after = next.pool()->stats();
  EXPECT_GT(after.recycled, before.recycled);
  EXPECT_EQ(after.allocated, before.allocated);
  expect_matches_trie(next, table, probe_addresses(table, 2'000, 1'303));
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

void count_coverage(const FlatLookupTable& prev, const FlatLookupTable& next,
                    const BinaryTrie& before, const Diff& diff,
                    StreamCoverage& c) {
  const std::set<Prefix> erased(diff.erases.begin(), diff.erases.end());
  const LongSlots slots = long_slots(before);
  // Every long slot that is not collapsed holds one level-2 block.
  ASSERT_EQ(prev.l2_block_count(),
            slots.all.size() - slots.collapsed.size());
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
  c.chunks_dropped += next.chunk_count() < prev.chunk_count();
}

// Differential stream length: 250 steps per run, or CLUE_SOAK_UPDATES /
// 50 when that is more (the soak stage). The streams are seeded, so a
// longer run replays the default one first.
std::size_t diff_steps() {
  const char* env = std::getenv("CLUE_SOAK_UPDATES");
  const long long n = env ? std::atoll(env) : 0;
  return std::max<std::size_t>(250, n > 0 ? n / 50 : 0);
}

// Drives `steps` random work items through the diff constructor. With
// `oldest_first`, versions are dropped oldest first once more than four
// are alive (the runtime's order); otherwise every 32 steps the stream
// moves to a fresh full build of its table and drops the whole old chain
// newest first. Every live version keeps answering as it did when built.
void run_diff_stream(bool oldest_first, std::size_t steps,
                     std::uint64_t seed, StreamCoverage& coverage) {
  Pcg32 rng(seed);
  BinaryTrie table;
  while (table.size() < 300) {
    const Prefix candidate = hot_prefix(rng);
    if (!overlaps_any(table, candidate)) {
      table.insert(candidate, random_hop(rng));
    }
  }
  std::deque<LiveVersion> live;
  live.push_back(
      make_live(std::make_unique<FlatLookupTable>(table), table, seed));
  for (std::size_t step = 1; step <= steps; ++step) {
    const BinaryTrie before = table;
    const Diff diff = random_work(table, rng);
    auto next = std::make_unique<FlatLookupTable>(*live.back().flat,
                                                  diff.erases, diff.writes);
    count_coverage(*live.back().flat, *next, before, diff, coverage);
    if (testing::Test::HasFatalFailure()) return;
    expect_image_equals(*next, table, diff, rng);
    if (testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "step " << step << " (seed " << seed << ")";
      return;
    }
    live.push_back(make_live(std::move(next), table, seed + step));
    if (oldest_first) {
      if (live.size() > 4) live.pop_front();
    } else if (step % 32 == 0) {
      std::deque<LiveVersion> old = std::move(live);
      live.clear();
      live.push_back(make_live(std::make_unique<FlatLookupTable>(table),
                               table, seed + step));
      while (!old.empty()) old.pop_back();
    }
    expect_all_live_match(live, static_cast<int>(step));
    if (testing::Test::HasFatalFailure()) return;
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
  const FlatLookupTable prev(table);
  ASSERT_EQ(prev.l2_block_count(), 1u);  // the /25 pair collapsed
  const auto probes = probe_addresses(table, 500, 19);

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
      // Valid work first, so the build has copied and painted blocks
      // before it meets the violation.
      {"a violation after valid work",
       {quarter, half_lo},
       {good, Route{Prefix(Ipv4Address(0x0A000000u), 12), make_next_hop(5)}}},
  };
  for (const Case& c : cases) {
    EXPECT_THROW(FlatLookupTable(prev, c.erases, c.writes),
                 std::invalid_argument)
        << c.what;
    expect_matches_trie(prev, table, probes);
    ASSERT_EQ(prev.route_count(), table.size()) << c.what;
  }

  // Still a valid predecessor: a rewrite, an erase inside the collapsed
  // tile (re-expanding it) and an insert.
  const FlatLookupTable next(prev, std::vector<Prefix>{half_hi},
                             std::vector<Route>{good, {wide, make_next_hop(6)}});
  const BinaryTrie before = table;
  table.erase(half_hi);
  table.insert(good.prefix, good.next_hop);
  table.insert(wide, make_next_hop(6));
  expect_matches_trie(next, table, probe_addresses(table, 500, 20));
  EXPECT_EQ(next.route_count(), table.size());
  expect_matches_trie(prev, before, probes);
}

}  // namespace
