// DredStore — one TCAM's Dynamic Redundancy partition.
//
// An LRU-replaced store of prefixes with LPM matching, the structure the
// paper carves out of each TCAM chip (Fig. 1). CLUE's novelty is a usage
// rule, not a structure: DRed i never receives TCAM i's own prefixes,
// because a packet homed at TCAM i is never diverted to DRed i — so the
// same hit rate needs (N-1)/N of CLPL's capacity. That exclusion lives in
// the engine's fill policy; the store itself is shared by both modes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "netbase/prefix.hpp"

namespace clue::engine {

using netbase::Ipv4Address;
using netbase::NextHop;
using netbase::Prefix;
using netbase::Route;

/// One DRed sync (§IV-C): a deleted stored shape is erased from a DRed, a
/// modified one fixed in place (the route carries the new hop).
/// update::ChipSet plans each DRed's list of them; the hosts deliver the
/// lists as planned.
struct DredSync {
  enum class Kind : std::uint8_t { kErase, kFix };
  Kind kind = Kind::kErase;
  Route route;

  friend constexpr bool operator==(const DredSync&, const DredSync&) = default;
};

// In the paper a diverted packet's DRed probe costs one TCAM search, the
// same as a home lookup; in the runtime it sits on the diverted-lookup
// path of every chip worker, so it is built like the flat image rather
// than like a trie. Three flat structures, sized at construction, none
// of which allocates per operation:
//
//   * entries — `capacity` slots holding the cached routes, linked into
//     an exact LRU list by intrusive uint32 prev/next indices, with a
//     free list for erased slots;
//   * index — an open-addressing Prefix -> entry table (>= 2 x capacity
//     slots, linear probing, backward-shift delete) plus a per-length
//     entry count, which answers contains/fix/erase and finds covers;
//   * paint table — a 16-8-8 multibit image of the LPM answer: a fixed
//     65536-slot level 1 indexed by address >> 16 (256 KiB per store)
//     and 256-slot level-2/3 blocks from a recycled pool, at most one
//     per stored prefix longer than /16 (level 2) or /24 (level 3). A
//     slot holds (painted length, entry id), so a lookup is 1-3
//     dependent loads plus an LRU touch.
//
// insert paints the prefix's slots whose painted length is shorter;
// fix rewrites only the entry's hop; erase and eviction repaint the
// victim's slots with its longest stored cover (exact index probes at
// the lengths present), and a block left with no longer prefix
// collapses back into its parent slot. Stats and LRU order are those
// of a plain list + trie store: a hit counts and promotes, fix does not
// promote, a re-offered prefix is an update, never an insertion.
//
// offer is insert behind an admission filter (a TinyLFU-style
// doorkeeper, a fixed array of kDoorkeeperSlots 32-bit tags): an
// uncached route enters on its second offer only. A fill is a write
// that competes with lookups for the chip, and a full store pays an
// eviction for every fresh entry, so a route offered once does not get
// to displace one already cached.
class DredStore {
 public:
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t insertions = 0;  ///< fresh entries only (cache grew)
    std::uint64_t updates = 0;     ///< already-cached prefix re-offered/fixed
    std::uint64_t evictions = 0;
    std::uint64_t erasures = 0;
    std::uint64_t declined = 0;    ///< offers the doorkeeper turned away

    double hit_rate() const {
      return lookups ? static_cast<double>(hits) /
                           static_cast<double>(lookups)
                     : 0.0;
    }
  };

  /// Largest supported capacity: entry ids share a 32-bit slot with the
  /// painted length.
  static constexpr std::size_t kMaxCapacity = std::size_t{1} << 25;

  /// Doorkeeper size: one 32-bit tag per slot, whatever the capacity.
  static constexpr std::size_t kDoorkeeperSlots = 4096;

  /// Doorkeeper slot of `prefix`: two prefixes with the same slot
  /// overwrite each other's first offer.
  static constexpr std::size_t doorkeeper_slot(const Prefix& prefix) {
    return static_cast<std::size_t>(doorkeeper_hash(prefix) >> 52);
  }

  /// Throws std::invalid_argument when capacity is 0 or above
  /// kMaxCapacity.
  explicit DredStore(std::size_t capacity);

  /// LPM over the cached prefixes; refreshes LRU position on hit.
  /// Inline: it is the diverted-lookup hot path of every chip worker.
  std::optional<NextHop> lookup(Ipv4Address address) {
    ++stats_.lookups;
    const std::uint32_t a = address.value();
    Slot slot = level1_[a >> 16];
    if (is_block(slot)) {
      slot = pool_[block_base(slot) + level2_at(a)];
      if (is_block(slot)) slot = pool_[block_base(slot) + (a & 0xFF)];
    }
    if (slot == 0) return std::nullopt;
    ++stats_.hits;
    const std::uint32_t id = slot & kIdMask;
    touch(id);
    return entries_[id].route.next_hop;
  }

  /// Caches `route`, refreshing recency if already present (and updating
  /// its next hop); evicts the least-recently-used entry when full.
  /// A re-offered prefix counts as an update, never a fresh insertion.
  void insert(const Route& route);

  /// A cache fill behind the doorkeeper. A cached route takes insert's
  /// update path (hop rewritten, entry promoted). An uncached one is
  /// admitted only when its doorkeeper slot holds its tag, i.e. on the
  /// second offer since its slot last changed: the tag is cleared and
  /// the route inserted. Otherwise the route's tag replaces the slot's
  /// and the offer is declined (Stats::declined). Returns true when the
  /// route is cached afterwards.
  bool offer(const Route& route);

  /// Control-plane fix (§IV-C kModify sync): rewrites the next hop of an
  /// already-cached prefix *without* promoting it in LRU order — a sync
  /// message is not a reuse, so it must not distort replacement. Returns
  /// false when the prefix is not cached.
  bool fix(const Route& route);

  /// Exact-prefix removal (routing-update synchronisation, §IV-C).
  bool erase(const Prefix& prefix);

  /// Applies one sync: erase() for kErase, fix() for kFix. Returns
  /// whether the prefix was cached.
  bool apply(const DredSync& sync) {
    return sync.kind == DredSync::Kind::kErase ? erase(sync.route.prefix)
                                               : fix(sync.route);
  }

  bool contains(const Prefix& prefix) const {
    return find(prefix.bits(), prefix.length()) != kNil;
  }
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  /// Cached prefixes (LRU order, most recent first) — RRC-ME's
  /// invalidation scan needs the full contents.
  std::vector<Prefix> contents() const;
  /// Cached routes with their hops, same order as contents().
  std::vector<Route> routes() const;

  /// Cached prefixes whose range intersects `prefix`: ancestors and the
  /// prefix itself shortest-first, then descendants in address order
  /// (shorter first at equal address). What a TCAM-style invalidation
  /// probe would flag.
  std::vector<Prefix> overlapping(const Prefix& prefix) const;

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  /// Level-2 and level-3 paint blocks currently in use (0 when no cached
  /// prefix is longer than /16).
  std::size_t blocks_in_use() const { return blocks_in_use_; }

  /// Structural invariant: the LRU list, the prefix index, the per-length
  /// counts and the block pool describe the same entry set, within
  /// capacity. O(size + blocks); cheap enough for tests to assert after
  /// every mutation.
  bool invariants_ok() const;

 private:
  /// A paint-table slot: 0 = no covering prefix; a leaf is
  /// (length + 1) << kLenShift | entry id; a block reference is
  /// kBlockBit | block id.
  using Slot = std::uint32_t;
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  static constexpr unsigned kLenShift = 25;
  static constexpr Slot kIdMask = (Slot{1} << kLenShift) - 1;
  static constexpr Slot kBlockBit = Slot{1} << 31;
  static constexpr std::size_t kBlockSlots = 256;

  struct Entry {
    Route route;
    std::uint32_t prev = kNil;  // towards the MRU end
    std::uint32_t next = kNil;  // towards the LRU end; free-list link
  };
  /// An index slot keys on (bits, length) and stores the entry's leaf
  /// code; leaf == 0 marks an empty slot.
  struct IndexSlot {
    std::uint32_t bits = 0;
    Slot leaf = 0;
  };

  static constexpr Slot leaf_of(unsigned length, std::uint32_t id) {
    return (Slot{length + 1} << kLenShift) | id;
  }
  static constexpr bool is_block(Slot slot) { return slot & kBlockBit; }
  static constexpr std::size_t block_base(Slot slot) {
    return static_cast<std::size_t>(slot & ~kBlockBit) * kBlockSlots;
  }
  /// Slot index inside a level-2 block (address bits 15..8).
  static constexpr std::size_t level2_at(std::uint32_t bits) {
    return (bits >> 8) & 0xFF;
  }

  /// Fibonacci hash of (bits, length): the top 12 bits pick the
  /// doorkeeper slot, the 32 below them the tag (never 0, which marks an
  /// empty slot).
  static constexpr std::uint64_t doorkeeper_hash(const Prefix& prefix) {
    return ((std::uint64_t{prefix.bits()} << 6) | prefix.length()) *
           0x9E3779B97F4A7C15ull;
  }
  static constexpr std::uint32_t doorkeeper_tag(const Prefix& prefix) {
    return static_cast<std::uint32_t>(doorkeeper_hash(prefix) >> 20) | 1u;
  }

  /// insert's two halves: re-offer of cached entry `id`, fresh entry.
  void refresh(std::uint32_t id, NextHop next_hop);
  void add(const Route& route);

  std::size_t index_home(std::uint32_t bits, unsigned length) const;
  /// Entry id stored for (bits, length), or kNil.
  std::uint32_t find(std::uint32_t bits, unsigned length) const;
  void index_insert(const Prefix& prefix, Slot leaf);
  void index_erase(const Prefix& prefix);

  /// Leaf code of the longest cached prefix strictly containing `prefix`,
  /// or 0 when none does.
  Slot cover_of(const Prefix& prefix) const;
  /// Applies `paint` to every leaf slot in `prefix`'s range, descending
  /// into blocks. The blocks on the prefix's own path must exist.
  template <typename Paint>
  void paint(const Prefix& prefix, Paint&& apply);
  template <typename Paint>
  void paint_slot(Slot& slot, Paint& apply);
  /// Pool offset of the block below slot `table[at]`, splitting a leaf
  /// slot into a fresh block first; counts one more deeper prefix in it.
  std::size_t split(std::vector<Slot>& table, std::size_t at);
  /// Counts one fewer deeper prefix in the block below `table[at]`,
  /// collapsing it back into that slot when none is left.
  void release(std::vector<Slot>& table, std::size_t at);

  void link_front(std::uint32_t id) {
    Entry& entry = entries_[id];
    entry.prev = kNil;
    entry.next = head_;
    if (head_ != kNil) {
      entries_[head_].prev = id;
    } else {
      tail_ = id;
    }
    head_ = id;
  }
  void unlink(std::uint32_t id) {
    const Entry& entry = entries_[id];
    if (entry.prev != kNil) {
      entries_[entry.prev].next = entry.next;
    } else {
      head_ = entry.next;
    }
    if (entry.next != kNil) {
      entries_[entry.next].prev = entry.prev;
    } else {
      tail_ = entry.prev;
    }
  }
  void touch(std::uint32_t id) {
    if (id == head_) return;
    unlink(id);
    link_front(id);
  }
  /// Removes entry `id` everywhere: index, paint, blocks, LRU.
  void remove(std::uint32_t id);

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::vector<Entry> entries_;
  std::uint32_t head_ = kNil;  // most recently used
  std::uint32_t tail_ = kNil;  // least recently used
  std::uint32_t free_entry_ = kNil;

  std::vector<IndexSlot> index_;
  std::size_t index_mask_ = 0;
  unsigned index_shift_ = 0;
  std::array<std::uint32_t, Prefix::kMaxLength + 1> length_count_{};
  std::uint64_t lengths_present_ = 0;  // bit l: length_count_[l] > 0

  std::vector<Slot> level1_;
  /// Level-2/3 blocks, kBlockSlots slots each; a free block links to the
  /// next free one through its first slot.
  std::vector<Slot> pool_;
  /// Per block: cached prefixes longer than the block's parent level
  /// inside its range (the block collapses at 0).
  std::vector<std::uint32_t> deeper_;
  std::uint32_t free_block_ = kNil;
  std::size_t blocks_in_use_ = 0;

  std::vector<std::uint32_t> doorkeeper_;  // kDoorkeeperSlots tags, 0 = empty

  Stats stats_;
};

}  // namespace clue::engine
