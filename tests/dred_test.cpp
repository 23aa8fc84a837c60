#include "engine/dred.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <optional>
#include <string>
#include <vector>

#include "netbase/rng.hpp"
#include "trie/binary_trie.hpp"

namespace clue::engine {
namespace {

using netbase::Ipv4Address;
using netbase::make_next_hop;
using netbase::Pcg32;

Prefix p(const char* text) {
  const auto parsed = Prefix::parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return *parsed;
}

Ipv4Address a(const char* text) {
  const auto parsed = Ipv4Address::parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return *parsed;
}

TEST(DredStore, RejectsZeroCapacity) {
  EXPECT_THROW(DredStore(0), std::invalid_argument);
}

TEST(DredStore, MissOnEmpty) {
  DredStore dred(4);
  EXPECT_FALSE(dred.lookup(a("1.2.3.4")).has_value());
  EXPECT_EQ(dred.stats().lookups, 1u);
  EXPECT_EQ(dred.stats().hits, 0u);
}

TEST(DredStore, InsertThenHit) {
  DredStore dred(4);
  dred.insert(Route{p("10.0.0.0/8"), make_next_hop(1)});
  const auto hop = dred.lookup(a("10.1.2.3"));
  ASSERT_TRUE(hop.has_value());
  EXPECT_EQ(*hop, make_next_hop(1));
  EXPECT_DOUBLE_EQ(dred.stats().hit_rate(), 1.0);
}

TEST(DredStore, LookupIsLongestMatch) {
  DredStore dred(4);
  dred.insert(Route{p("10.0.0.0/8"), make_next_hop(1)});
  dred.insert(Route{p("10.1.0.0/16"), make_next_hop(2)});
  EXPECT_EQ(dred.lookup(a("10.1.2.3")), make_next_hop(2));
  EXPECT_EQ(dred.lookup(a("10.2.0.1")), make_next_hop(1));
}

TEST(DredStore, EvictsLeastRecentlyUsed) {
  DredStore dred(2);
  dred.insert(Route{p("10.0.0.0/8"), make_next_hop(1)});
  dred.insert(Route{p("11.0.0.0/8"), make_next_hop(2)});
  // Touch 10/8 so 11/8 becomes the LRU victim.
  dred.lookup(a("10.0.0.1"));
  dred.insert(Route{p("12.0.0.0/8"), make_next_hop(3)});
  EXPECT_TRUE(dred.contains(p("10.0.0.0/8")));
  EXPECT_FALSE(dred.contains(p("11.0.0.0/8")));
  EXPECT_TRUE(dred.contains(p("12.0.0.0/8")));
  EXPECT_EQ(dred.stats().evictions, 1u);
}

TEST(DredStore, ReinsertRefreshesRecencyAndHop) {
  DredStore dred(2);
  dred.insert(Route{p("10.0.0.0/8"), make_next_hop(1)});
  dred.insert(Route{p("11.0.0.0/8"), make_next_hop(2)});
  dred.insert(Route{p("10.0.0.0/8"), make_next_hop(9)});  // refresh
  dred.insert(Route{p("12.0.0.0/8"), make_next_hop(3)});  // evicts 11/8
  EXPECT_TRUE(dred.contains(p("10.0.0.0/8")));
  EXPECT_FALSE(dred.contains(p("11.0.0.0/8")));
  EXPECT_EQ(dred.lookup(a("10.0.0.1")), make_next_hop(9));
}

TEST(DredStore, EraseRemoves) {
  DredStore dred(4);
  dred.insert(Route{p("10.0.0.0/8"), make_next_hop(1)});
  EXPECT_TRUE(dred.erase(p("10.0.0.0/8")));
  EXPECT_FALSE(dred.erase(p("10.0.0.0/8")));
  EXPECT_FALSE(dred.lookup(a("10.0.0.1")).has_value());
  EXPECT_EQ(dred.size(), 0u);
}

TEST(DredStore, SizeNeverExceedsCapacity) {
  Pcg32 rng(37);
  DredStore dred(16);
  for (int i = 0; i < 500; ++i) {
    dred.insert(Route{Prefix(Ipv4Address(rng.next()), 24),
                      make_next_hop(1 + rng.next_below(4))});
    ASSERT_LE(dred.size(), 16u);
  }
  EXPECT_EQ(dred.size(), 16u);
}

TEST(DredStore, ContentsAreMruFirst) {
  DredStore dred(4);
  dred.insert(Route{p("10.0.0.0/8"), make_next_hop(1)});
  dred.insert(Route{p("11.0.0.0/8"), make_next_hop(2)});
  dred.lookup(a("10.0.0.1"));  // 10/8 becomes MRU
  const auto contents = dred.contents();
  ASSERT_EQ(contents.size(), 2u);
  EXPECT_EQ(contents[0], p("10.0.0.0/8"));
  EXPECT_EQ(contents[1], p("11.0.0.0/8"));
}

TEST(DredStore, OverlappingFindsAncestorsAndDescendants) {
  DredStore dred(8);
  dred.insert(Route{p("10.0.0.0/8"), make_next_hop(1)});
  dred.insert(Route{p("10.1.0.0/16"), make_next_hop(2)});
  dred.insert(Route{p("10.1.2.0/24"), make_next_hop(3)});
  dred.insert(Route{p("11.0.0.0/8"), make_next_hop(4)});
  const auto overlapping = dred.overlapping(p("10.1.0.0/16"));
  ASSERT_EQ(overlapping.size(), 3u);
  // Ancestors (shortest-first), then descendants.
  EXPECT_EQ(overlapping[0], p("10.0.0.0/8"));
  EXPECT_EQ(overlapping[1], p("10.1.0.0/16"));
  EXPECT_EQ(overlapping[2], p("10.1.2.0/24"));
}

TEST(DredStore, ReinsertCountsAsUpdateNotInsertion) {
  DredStore dred(4);
  dred.insert(Route{p("10.0.0.0/8"), make_next_hop(1)});
  EXPECT_EQ(dred.stats().insertions, 1u);
  EXPECT_EQ(dred.stats().updates, 0u);

  // Same prefix, same hop: idempotent — an update, not growth.
  dred.insert(Route{p("10.0.0.0/8"), make_next_hop(1)});
  EXPECT_EQ(dred.size(), 1u);
  EXPECT_EQ(dred.stats().insertions, 1u);
  EXPECT_EQ(dred.stats().updates, 1u);
  EXPECT_TRUE(dred.invariants_ok());

  // Same prefix, new hop: still an update, hop rewritten.
  dred.insert(Route{p("10.0.0.0/8"), make_next_hop(2)});
  EXPECT_EQ(dred.size(), 1u);
  EXPECT_EQ(dred.stats().insertions, 1u);
  EXPECT_EQ(dred.stats().updates, 2u);
  EXPECT_EQ(*dred.lookup(a("10.1.2.3")), make_next_hop(2));
  EXPECT_TRUE(dred.invariants_ok());
}

TEST(DredStore, RepeatedReinsertKeepsIndexAndTrieInSync) {
  // The original insert() unconditionally re-inserted into the match
  // trie on the already-cached path; entries_ and match_ could drift.
  DredStore dred(4);
  for (int i = 0; i < 100; ++i) {
    dred.insert(Route{p("10.0.0.0/8"), make_next_hop(1 + (i % 3))});
    ASSERT_TRUE(dred.invariants_ok()) << "iteration " << i;
    ASSERT_EQ(dred.size(), 1u);
  }
  EXPECT_EQ(dred.stats().insertions, 1u);
  EXPECT_EQ(dred.stats().updates, 99u);
}

TEST(DredStore, FixRewritesHopInPlace) {
  DredStore dred(2);
  dred.insert(Route{p("10.0.0.0/8"), make_next_hop(1)});
  EXPECT_TRUE(dred.fix(Route{p("10.0.0.0/8"), make_next_hop(9)}));
  EXPECT_EQ(*dred.lookup(a("10.0.0.1")), make_next_hop(9));
  EXPECT_TRUE(dred.invariants_ok());
}

TEST(DredStore, FixDoesNotPromote) {
  DredStore dred(2);
  dred.insert(Route{p("10.0.0.0/8"), make_next_hop(1)});
  dred.insert(Route{p("11.0.0.0/8"), make_next_hop(2)});
  // LRU order now: 11/8 (MRU), 10/8 (LRU). A control-plane fix of 10/8
  // must leave 10/8 the eviction candidate (insert() would promote it).
  EXPECT_TRUE(dred.fix(Route{p("10.0.0.0/8"), make_next_hop(9)}));

  dred.insert(Route{p("12.0.0.0/8"), make_next_hop(3)});  // evicts the LRU
  EXPECT_EQ(dred.stats().evictions, 1u);
  EXPECT_FALSE(dred.contains(p("10.0.0.0/8")))
      << "fix() promoted 10/8 over 11/8";
  EXPECT_TRUE(dred.contains(p("11.0.0.0/8")));
  EXPECT_TRUE(dred.contains(p("12.0.0.0/8")));
  EXPECT_TRUE(dred.invariants_ok());
}

TEST(DredStore, FixOfUncachedPrefixIsRejected) {
  DredStore dred(4);
  dred.insert(Route{p("10.0.0.0/8"), make_next_hop(1)});
  EXPECT_FALSE(dred.fix(Route{p("11.0.0.0/8"), make_next_hop(2)}));
  EXPECT_EQ(dred.size(), 1u);
  EXPECT_EQ(dred.stats().insertions, 1u);
  EXPECT_TRUE(dred.invariants_ok());
}

TEST(DredStore, RepeatedLookupsCountLikeTrieLookups) {
  // The address fast path must be invisible in the stats: N identical
  // probes are N lookups and N hits whether they came from the trie or
  // the cache.
  DredStore dred(4);
  dred.insert(Route{p("10.0.0.0/8"), make_next_hop(1)});
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(dred.lookup(a("10.1.2.3")), make_next_hop(1));
  }
  EXPECT_EQ(dred.stats().lookups, 10u);
  EXPECT_EQ(dred.stats().hits, 10u);

  // Remembered misses count as lookups but never as hits.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(dred.lookup(a("99.0.0.1")).has_value());
  }
  EXPECT_EQ(dred.stats().lookups, 20u);
  EXPECT_EQ(dred.stats().hits, 10u);
}

TEST(DredStore, CachedHitsStillPromoteInLruOrder) {
  DredStore dred(2);
  dred.insert(Route{p("10.0.0.0/8"), make_next_hop(1)});
  dred.insert(Route{p("11.0.0.0/8"), make_next_hop(2)});
  // Two probes of the same address: the second is answered from the
  // address cache but must promote 10/8 exactly like the first did.
  dred.lookup(a("10.0.0.1"));
  dred.lookup(a("11.0.0.1"));
  dred.lookup(a("10.0.0.1"));  // cached — 10/8 back to MRU
  dred.insert(Route{p("12.0.0.0/8"), make_next_hop(3)});
  EXPECT_TRUE(dred.contains(p("10.0.0.0/8")))
      << "cached hit failed to refresh LRU position";
  EXPECT_FALSE(dred.contains(p("11.0.0.0/8")));
}

TEST(DredStore, MutationsInvalidateCachedAnswers) {
  DredStore dred(4);
  dred.insert(Route{p("10.0.0.0/8"), make_next_hop(1)});
  EXPECT_EQ(dred.lookup(a("10.1.2.3")), make_next_hop(1));

  // A longer covering prefix must override the cached /8 answer.
  dred.insert(Route{p("10.1.0.0/16"), make_next_hop(2)});
  EXPECT_EQ(dred.lookup(a("10.1.2.3")), make_next_hop(2));

  // fix() rewrites the hop behind the cached answer.
  EXPECT_TRUE(dred.fix(Route{p("10.1.0.0/16"), make_next_hop(7)}));
  EXPECT_EQ(dred.lookup(a("10.1.2.3")), make_next_hop(7));

  // erase() must flip a remembered hit back to the shorter match...
  EXPECT_TRUE(dred.erase(p("10.1.0.0/16")));
  EXPECT_EQ(dred.lookup(a("10.1.2.3")), make_next_hop(1));
  // ...and a remembered miss must turn into a hit after insert.
  EXPECT_FALSE(dred.lookup(a("99.0.0.1")).has_value());
  dred.insert(Route{p("99.0.0.0/8"), make_next_hop(5)});
  EXPECT_EQ(dred.lookup(a("99.0.0.1")), make_next_hop(5));
}

TEST(DredStore, RandomizedLookupsMatchTrieOracle) {
  // Drive the store through random mutations and probes, checking every
  // answer (cached or not) against a plain trie carrying the same
  // routes. A small address pool forces heavy cache reuse.
  Pcg32 rng(101);
  DredStore dred(32);
  trie::BinaryTrie oracle;
  std::vector<Prefix> pool;
  for (int round = 0; round < 5000; ++round) {
    const auto dice = rng.next_below(100);
    if (dice < 20 || pool.empty()) {
      const Prefix prefix(Ipv4Address(0x0A000000u | (rng.next() & 0x3FFF00)),
                          24);
      const Route route{prefix, make_next_hop(1 + rng.next_below(8))};
      dred.insert(route);
      oracle.insert(route.prefix, route.next_hop);
      pool.push_back(prefix);
      // Mirror evictions: the oracle only keeps what the store kept.
      while (oracle.size() > dred.size()) {
        bool erased = false;
        for (auto it = pool.begin(); it != pool.end(); ++it) {
          if (!dred.contains(*it) && oracle.lookup_route(it->range_low())) {
            oracle.erase(*it);
            pool.erase(it);
            erased = true;
            break;
          }
        }
        ASSERT_TRUE(erased);
      }
    } else if (dice < 25) {
      const auto& victim = pool[rng.next_below(pool.size())];
      const bool erased = dred.erase(victim);
      if (erased) oracle.erase(victim);
    } else if (dice < 30) {
      const auto& target = pool[rng.next_below(pool.size())];
      const Route route{target, make_next_hop(1 + rng.next_below(8))};
      if (dred.fix(route)) oracle.insert(route.prefix, route.next_hop);
    } else {
      const auto& base = pool[rng.next_below(pool.size())];
      const Ipv4Address addr(base.range_low().value() + rng.next_below(512));
      const auto got = dred.lookup(addr);
      const auto want = oracle.lookup_route(addr);
      ASSERT_EQ(got.has_value(), want.has_value()) << "round " << round;
      if (want) {
        ASSERT_EQ(*got, want->next_hop) << "round " << round;
      }
    }
    ASSERT_TRUE(dred.invariants_ok());
  }
}

TEST(DredStore, EvictionKeepsMatchIndexConsistent) {
  Pcg32 rng(41);
  DredStore dred(8);
  for (int i = 0; i < 2000; ++i) {
    const Prefix prefix(Ipv4Address(0x0A000000u | (rng.next() & 0xFFFF00)),
                        24);
    dred.insert(Route{prefix, make_next_hop(1)});
    // Every cached prefix must be findable; every evicted one must not.
    for (const auto& cached : dred.contents()) {
      ASSERT_TRUE(dred.contains(cached));
      const auto hop = dred.lookup(cached.range_low());
      ASSERT_TRUE(hop.has_value());
    }
  }
}

// Reference model for the differential test: the straightforward store
// the flat DredStore must be indistinguishable from — a BinaryTrie for
// LPM and a std::list for exact LRU order, with the same stats rules,
// and the doorkeeper as one remembered prefix per slot.
class ModelDred {
 public:
  explicit ModelDred(std::size_t capacity)
      : capacity_(capacity), door_(DredStore::kDoorkeeperSlots) {}

  std::optional<NextHop> lookup(Ipv4Address address) {
    ++stats_.lookups;
    const auto route = match_.lookup_route(address);
    if (!route) return std::nullopt;
    ++stats_.hits;
    const auto it = find(route->prefix);
    lru_.splice(lru_.begin(), lru_, it);
    return it->next_hop;
  }

  void insert(const Route& route) {
    if (const auto it = find(route.prefix); it != lru_.end()) {
      it->next_hop = route.next_hop;
      match_.insert(route.prefix, route.next_hop);
      lru_.splice(lru_.begin(), lru_, it);
      ++stats_.updates;
      return;
    }
    if (lru_.size() == capacity_) {
      match_.erase(lru_.back().prefix);
      lru_.pop_back();
      ++stats_.evictions;
    }
    lru_.push_front(route);
    match_.insert(route.prefix, route.next_hop);
    ++stats_.insertions;
  }

  bool offer(const Route& route) {
    if (find(route.prefix) != lru_.end()) {
      insert(route);
      return true;
    }
    auto& slot = door_[DredStore::doorkeeper_slot(route.prefix)];
    if (slot == route.prefix) {
      slot.reset();
      insert(route);
      return true;
    }
    slot = route.prefix;
    ++stats_.declined;
    return false;
  }

  bool fix(const Route& route) {
    const auto it = find(route.prefix);
    if (it == lru_.end()) return false;
    it->next_hop = route.next_hop;
    match_.insert(route.prefix, route.next_hop);
    ++stats_.updates;
    return true;
  }

  bool erase(const Prefix& prefix) {
    const auto it = find(prefix);
    if (it == lru_.end()) return false;
    lru_.erase(it);
    match_.erase(prefix);
    ++stats_.erasures;
    return true;
  }

  std::vector<Prefix> contents() const {
    std::vector<Prefix> out;
    for (const auto& route : lru_) out.push_back(route.prefix);
    return out;
  }
  std::vector<Route> routes() const { return {lru_.begin(), lru_.end()}; }

  std::vector<Prefix> overlapping(const Prefix& prefix) const {
    std::vector<Prefix> out;
    match_.for_each_match(prefix.range_low(), [&](const Route& route) {
      if (route.prefix.length() <= prefix.length()) {
        out.push_back(route.prefix);
      }
    });
    for (const auto& route : match_.routes_within(prefix)) {
      if (route.prefix.length() > prefix.length()) {
        out.push_back(route.prefix);
      }
    }
    return out;
  }

  const DredStore::Stats& stats() const { return stats_; }

 private:
  std::list<Route>::iterator find(const Prefix& prefix) {
    return std::find_if(lru_.begin(), lru_.end(), [&](const Route& route) {
      return route.prefix == prefix;
    });
  }

  std::size_t capacity_;
  std::list<Route> lru_;  // front = most recently used
  std::vector<std::optional<Prefix>> door_;  // first offer per slot
  trie::BinaryTrie match_;
  DredStore::Stats stats_;
};

void expect_same_stats(const DredStore::Stats& got,
                       const DredStore::Stats& want) {
  EXPECT_EQ(got.lookups, want.lookups);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.insertions, want.insertions);
  EXPECT_EQ(got.updates, want.updates);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.erasures, want.erasures);
  EXPECT_EQ(got.declined, want.declined);
}

// Overlapping prefixes of every length, concentrated at the paint
// table's block edges (/16, /17, /24, /25, /32) and packed into a few
// neighbouring /16s so covers, nested blocks and collapses all occur.
Prefix random_prefix(Pcg32& rng) {
  static constexpr std::uint32_t kBases[] = {0x0A010000u, 0x0A01FF00u,
                                             0x0A020000u, 0xC0A80000u};
  static constexpr unsigned kEdges[] = {16, 17, 24, 25, 32};
  const std::uint32_t spread = rng.next_below(2) == 0 ? 0x3FFFFu : 0x3FFu;
  const std::uint32_t bits = kBases[rng.next_below(4)] ^ (rng.next() & spread);
  const unsigned length = rng.next_below(2) == 0
                              ? kEdges[rng.next_below(5)]
                              : rng.next_below(33);
  return Prefix(Ipv4Address(bits), length);
}

void run_differential(std::size_t capacity, std::uint64_t seed) {
  SCOPED_TRACE("capacity " + std::to_string(capacity));
  Pcg32 rng(seed);
  DredStore dred(capacity);
  ModelDred model(capacity);
  std::vector<Prefix> seen;
  const auto pick_seen = [&] {
    return seen[rng.next_below(static_cast<std::uint32_t>(seen.size()))];
  };
  // One of the last 8 prefixes used, so a fill's second offer is common.
  const auto pick_recent = [&] {
    const auto window = static_cast<std::uint32_t>(
        std::min<std::size_t>(seen.size(), 8));
    return seen[seen.size() - 1 - rng.next_below(window)];
  };
  std::size_t admitted = 0;  // uncached routes an offer let in
  // Long enough for the largest store to fill up and start evicting.
  const std::size_t ops = 8000 + 8 * capacity;
  for (std::size_t op = 0; op < ops; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const auto dice = rng.next_below(100);
    Prefix probe_prefix = seen.empty() ? random_prefix(rng) : pick_seen();
    if (dice < 30 || seen.empty()) {
      // Fresh or re-offered route (a re-offer may change the hop).
      const Prefix prefix =
          seen.empty() || rng.next_below(4) != 0 ? random_prefix(rng)
                                                 : pick_seen();
      const Route route{prefix, make_next_hop(1 + rng.next_below(6))};
      dred.insert(route);
      model.insert(route);
      seen.push_back(prefix);
      probe_prefix = prefix;
    } else if (dice < 40) {
      // A fill offer: fresh, or a recent prefix (cached or not).
      const Prefix prefix =
          rng.next_below(2) == 0 ? random_prefix(rng) : pick_recent();
      const Route route{prefix, make_next_hop(1 + rng.next_below(6))};
      const bool cached = dred.contains(prefix);
      const bool offered = dred.offer(route);
      ASSERT_EQ(offered, model.offer(route));
      if (offered && !cached) ++admitted;
      seen.push_back(prefix);
      probe_prefix = prefix;
    } else if (dice < 50) {
      const Route route{pick_seen(), make_next_hop(1 + rng.next_below(6))};
      ASSERT_EQ(dred.fix(route), model.fix(route));
      probe_prefix = route.prefix;
    } else if (dice < 60) {
      probe_prefix = pick_seen();
      ASSERT_EQ(dred.erase(probe_prefix), model.erase(probe_prefix));
    } else {
      // Addresses inside a known prefix, or anywhere near the bases.
      const Prefix around = rng.next_below(4) == 0 ? random_prefix(rng)
                                                   : pick_seen();
      const std::uint64_t span = around.size() < 4096 ? around.size() : 4096;
      const Ipv4Address address(
          around.bits() +
          static_cast<std::uint32_t>(rng.next() % span));
      const auto got = dred.lookup(address);
      const auto want = model.lookup(address);
      ASSERT_EQ(got, want) << address.to_string();
    }
    ASSERT_TRUE(dred.invariants_ok());
    ASSERT_EQ(dred.size(), model.contents().size());
    ASSERT_EQ(dred.contents(), model.contents());
    ASSERT_EQ(dred.routes(), model.routes());
    ASSERT_EQ(dred.overlapping(probe_prefix), model.overlapping(probe_prefix))
        << probe_prefix.to_string();
    const Prefix wide(probe_prefix.address(), rng.next_below(17));
    ASSERT_EQ(dred.overlapping(wide), model.overlapping(wide))
        << wide.to_string();
    expect_same_stats(dred.stats(), model.stats());
  }

  // The stream reached the paths that matter: full-store eviction,
  // erase-driven block collapse, and both doorkeeper outcomes.
  EXPECT_GT(dred.stats().evictions, 0u);
  EXPECT_GT(dred.stats().erasures, 0u);
  EXPECT_GT(dred.stats().declined, 0u);
  EXPECT_GT(admitted, 0u);

  // Erasing every entry longer than /16 returns every block to the pool.
  for (const auto& prefix : dred.contents()) {
    if (prefix.length() > 16) {
      ASSERT_TRUE(dred.erase(prefix));
      ASSERT_TRUE(model.erase(prefix));
      ASSERT_TRUE(dred.invariants_ok());
    }
  }
  EXPECT_EQ(dred.blocks_in_use(), 0u);
  EXPECT_EQ(dred.contents(), model.contents());
  for (const auto& prefix : model.contents()) {
    EXPECT_EQ(dred.lookup(prefix.range_low()),
              model.lookup(prefix.range_low()));
  }
  expect_same_stats(dred.stats(), model.stats());
}

TEST(DredStore, DifferentialAgainstTrieAndListModel) {
  std::uint64_t seed = 907;
  for (const std::size_t capacity : {1, 2, 7, 64, 1024}) {
    run_differential(capacity, seed++);
    if (HasFatalFailure()) return;
  }
}

TEST(DredStore, FirstOfferIsDeclinedAndLeavesStoreUnchanged) {
  DredStore dred(4);
  dred.insert(Route{p("10.0.0.0/8"), make_next_hop(1)});
  dred.insert(Route{p("11.0.0.0/8"), make_next_hop(2)});
  const auto routes = dred.routes();
  auto stats = dred.stats();

  EXPECT_FALSE(dred.offer(Route{p("10.1.0.0/16"), make_next_hop(3)}));
  EXPECT_FALSE(dred.contains(p("10.1.0.0/16")));
  EXPECT_EQ(dred.routes(), routes);  // same entries, same LRU order
  ++stats.declined;
  expect_same_stats(dred.stats(), stats);
  EXPECT_EQ(dred.lookup(a("10.1.2.3")), make_next_hop(1));
  EXPECT_TRUE(dred.invariants_ok());
}

TEST(DredStore, SecondOfferAdmits) {
  DredStore dred(4);
  const Route route{p("10.1.0.0/16"), make_next_hop(3)};
  EXPECT_FALSE(dred.offer(route));
  EXPECT_TRUE(dred.offer(route));
  EXPECT_TRUE(dred.contains(route.prefix));
  EXPECT_EQ(dred.routes().front(), route);
  EXPECT_EQ(dred.lookup(a("10.1.2.3")), make_next_hop(3));
  EXPECT_EQ(dred.stats().insertions, 1u);
  EXPECT_EQ(dred.stats().declined, 1u);
  EXPECT_TRUE(dred.invariants_ok());

  // Admission spent the tag: once erased, the route starts over.
  EXPECT_TRUE(dred.erase(route.prefix));
  EXPECT_FALSE(dred.offer(route));
  EXPECT_TRUE(dred.offer(route));
}

TEST(DredStore, CachedReofferUpdatesLikeInsert) {
  DredStore via_insert(3);
  DredStore via_offer(3);
  for (const char* text : {"10.0.0.0/8", "11.0.0.0/8", "12.0.0.0/8"}) {
    via_insert.insert(Route{p(text), make_next_hop(1)});
    via_offer.insert(Route{p(text), make_next_hop(1)});
  }
  // 10/8 is the LRU entry; re-offering it rewrites the hop and promotes.
  const Route reoffer{p("10.0.0.0/8"), make_next_hop(9)};
  via_insert.insert(reoffer);
  EXPECT_TRUE(via_offer.offer(reoffer));
  EXPECT_EQ(via_offer.routes(), via_insert.routes());
  EXPECT_EQ(via_offer.routes().front(), reoffer);
  expect_same_stats(via_offer.stats(), via_insert.stats());

  // Same victim next: the promotion moved 11/8 to the LRU end.
  via_insert.insert(Route{p("13.0.0.0/8"), make_next_hop(1)});
  via_offer.insert(Route{p("13.0.0.0/8"), make_next_hop(1)});
  EXPECT_FALSE(via_offer.contains(p("11.0.0.0/8")));
  EXPECT_EQ(via_offer.routes(), via_insert.routes());
}

TEST(DredStore, CollidingOfferOverwritesTag) {
  // Two /24s that share a doorkeeper slot.
  const Prefix first = p("10.0.0.0/24");
  Prefix other = first;
  for (std::uint32_t i = 1; other == first; ++i) {
    const Prefix candidate(Ipv4Address(first.bits() + (i << 8)), 24);
    if (DredStore::doorkeeper_slot(candidate) ==
        DredStore::doorkeeper_slot(first)) {
      other = candidate;
    }
  }
  DredStore dred(4);
  EXPECT_FALSE(dred.offer(Route{first, make_next_hop(1)}));
  EXPECT_FALSE(dred.offer(Route{other, make_next_hop(2)}));  // overwrites
  EXPECT_FALSE(dred.offer(Route{first, make_next_hop(1)}));  // first again
  EXPECT_TRUE(dred.offer(Route{first, make_next_hop(1)}));
  EXPECT_FALSE(dred.contains(other));
  EXPECT_EQ(dred.stats().declined, 3u);
  EXPECT_EQ(dred.stats().insertions, 1u);
}

TEST(DredStore, RejectsCapacityAboveMaximum) {
  EXPECT_THROW(DredStore(DredStore::kMaxCapacity + 1), std::invalid_argument);
}

TEST(DredStore, BlocksCollapseWhenLongPrefixesLeave) {
  DredStore dred(8);
  dred.insert(Route{p("10.0.0.0/8"), make_next_hop(1)});
  EXPECT_EQ(dred.blocks_in_use(), 0u);
  dred.insert(Route{p("10.1.2.0/25"), make_next_hop(2)});  // level 2 + 3
  dred.insert(Route{p("10.1.3.0/24"), make_next_hop(3)});  // same level 2
  EXPECT_EQ(dred.blocks_in_use(), 2u);
  EXPECT_EQ(dred.lookup(a("10.1.2.200")), make_next_hop(1));
  EXPECT_EQ(dred.lookup(a("10.1.2.100")), make_next_hop(2));
  EXPECT_TRUE(dred.erase(p("10.1.2.0/25")));
  EXPECT_EQ(dred.blocks_in_use(), 1u);
  EXPECT_EQ(dred.lookup(a("10.1.2.100")), make_next_hop(1));
  EXPECT_TRUE(dred.erase(p("10.1.3.0/24")));
  EXPECT_EQ(dred.blocks_in_use(), 0u);
  EXPECT_EQ(dred.lookup(a("10.1.3.1")), make_next_hop(1));
  EXPECT_TRUE(dred.invariants_ok());
}

}  // namespace
}  // namespace clue::engine
