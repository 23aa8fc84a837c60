// FlatLookupTable — a DIR-24-8-style direct-index image of one chip's
// non-overlapping table.
//
// The ONRTC invariant (every address matches at most one stored prefix)
// is what makes this structure trivial to build: there is no priority
// resolution, so a route can simply be *painted* over the address range
// it covers. Lookup collapses the trie's ~32 dependent node loads into
// one or two array loads:
//
//   level 1  one 32-bit entry per /24 (DIR-24-8, the classic
//            Gupta/Lin/McKeown layout). An entry is either a route entry
//            directly (prefixes of length 24 or less) or, top bit set,
//            the id of a level-2 block.
//   level 2  one 32-bit route entry per address of a /24, only for
//            level-1 slots that contain prefixes longer than /24.
//
// A route entry carries the stored route's *shape*, not just its hop:
// the prefix length (6 bits) and an interned next-hop id (25 bits) into
// a small per-table hop array (a FIB has tens of distinct next hops, so
// a FIB is a label array over a tiny alphabet). Non-overlap makes
// Prefix(address, length) the exact stored prefix, so the image answers
// lookup_route() on its own. Entry 0 (id 0) is "no route".
//
// The level-1 array is split into 4096-entry chunks held by pointer; a
// null chunk means "all no-route", which keeps empty address space free.
// A per-chunk count of non-zero slots makes "did this chunk just empty?"
// O(1). Since every entry carries its length, the image also answers
// what the control role asks of a chip: its stored-route count (O(1)),
// the stored shapes within a region, and ordered runs from either end.
//
// One image per chip, patched in place the way the paper's §III-C
// updates a disjoint TCAM: non-overlap makes every write order-free, so
// the image is edited while lookups keep running. A diff (erase these
// stored shapes, then write these routes) is applied in two steps:
//
//   stage()  validates the diff against the live image (an erase must
//            name a stored shape; a write may only land on no-route
//            slots or rewrite its own prefix) and builds everything new
//            privately: fresh chunks, level-2 blocks, a grown hop array
//            or level-2 table. It computes each touched entry's
//            post-diff value without writing the live image, so a throw
//            leaves the image untouched.
//   apply()  noexcept. Publishes the staged values with release stores.
//            Each level-1 slot and level-2 entry whose answer changes is
//            stored exactly once, from its pre-diff to its post-diff
//            value — an erased region that a write re-covers never reads
//            as no-route in between — and a chunk or level-2 block the
//            patch leaves empty or uniform is unlinked by one store. A
//            concurrent reader therefore sees, per address, the pre- or
//            the post-patch answer, never a third one.
//
// Everything a patch unlinks (dropped chunks, collapsed level-2 blocks
// and their ids, a superseded hop array or level-2 table) comes back as
// a Retired bundle. Readers may still hold those blocks, so the caller
// keeps the bundle until a grace period has passed (the runtime hands it
// to its epoch domain); destroying it parks the blocks in the image's
// BlockPool, where later patches take them before they call new. A patch
// that unlinks nothing returns an empty bundle and needs no grace.
//
// The full build paints a route list through the same stage/apply path
// into the unpublished image: every chunk and block it touches is fresh.
//
// Thread-safety: one writer (stage/apply/stored_within; at most one
// staged patch at a time) and any number of concurrent readers
// (lookup, lookup_route, prefetch). Readers use only atomic loads —
// acquire wherever a pointer, a level-2 flag or a hop id is followed;
// plain movs on x86-64 — and must keep every block they can reach alive
// (the runtime's epoch pin) until the bundles of the patches they
// overlapped are destroyed.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netbase/prefix.hpp"
#include "trie/binary_trie.hpp"

namespace clue::engine {

class FlatLookupTable {
 public:
  using Ipv4Address = netbase::Ipv4Address;
  using NextHop = netbase::NextHop;
  using Prefix = netbase::Prefix;
  using Route = netbase::Route;

  class BlockPool;
  class Retired;
  class Patch;

  /// Full build from a non-overlapping route list, in any order (a
  /// prefix listed twice is a rewrite: the last hop wins). Throws
  /// std::invalid_argument on overlapping routes. Every next hop value is
  /// encodable; only a table with more than 2^25 - 1 distinct next hops
  /// throws (std::length_error).
  explicit FlatLookupTable(std::span<const Route> routes);
  /// Full build from the trie's routes.
  explicit FlatLookupTable(const trie::BinaryTrie& table);
  /// Frees the live image. Bundles it returned stay valid (they hold the
  /// pool) and park their blocks whenever they are destroyed.
  ~FlatLookupTable();

  FlatLookupTable(const FlatLookupTable&) = delete;
  FlatLookupTable& operator=(const FlatLookupTable&) = delete;

  /// Stages the diff: the stored shapes `erases` removed, then the routes
  /// `writes` written. Each erase must name a stored shape exactly, and
  /// each write may cover only no-route slots (after the erases) or
  /// rewrite the hop of a stored prefix; anything else throws
  /// std::invalid_argument, as does std::length_error on id overflow. On
  /// any throw the image is untouched. Throws std::logic_error if another
  /// patch is still staged. Dropping the returned patch unapplied
  /// discards it.
  [[nodiscard]] Patch stage(std::span<const Prefix> erases,
                            std::span<const Route> writes);

  /// Publishes `patch` (staged on this image) to concurrent readers and
  /// returns what it unlinked.
  Retired apply(Patch patch) noexcept;

  /// The hot path: 1-2 image loads plus one hop-array load.
  /// kNoRoute when no prefix covers `address`.
  NextHop lookup(Ipv4Address address) const { return hop_of(entry(address)); }

  /// The stored route covering `address`, in its exact stored shape
  /// (prefix, length and hop), or nullopt. Non-overlap makes the covering
  /// route unique, so this equals the source trie's lookup_route().
  std::optional<Route> lookup_route(Ipv4Address address) const {
    const std::uint32_t e = entry(address);
    if (e == 0) return std::nullopt;
    return Route{Prefix(address, e >> kLenShift), hop_of(e)};
  }

  /// Requests the level-1 entry's cache line ahead of lookup(); the
  /// worker loop issues this across a whole job batch before resolving
  /// so the (tens of MB, cache-cold) array loads overlap.
  void prefetch(Ipv4Address address) const {
    const std::uint32_t slot = address.value() >> kL2Bits;
    const std::uint32_t* chunk =
        chunks_[slot >> kChunkBits].load(std::memory_order_relaxed);
    if (chunk) __builtin_prefetch(&chunk[slot & kChunkMask], 0, 1);
  }

  /// Stored routes (a collapsed level-2 block counts each of its tiles).
  /// O(1): every patch keeps the count.
  std::size_t route_count() const { return route_count_; }

  /// Appends to `out` the stored routes lying within `region`, in address
  /// order — a trie's routes_within() (Prefix() walks the whole image).
  /// With `limit`, only the `limit` routes nearest the region's low end —
  /// or its high end when `from_high` — are walked and appended (still in
  /// address order), so a run at one end costs the run, not the table.
  /// Steps by each route's length and over null chunks whole. Writer side:
  /// call from the thread that stages patches (or while none is applied).
  void stored_within(const Prefix& region, std::vector<Route>& out,
                     std::size_t limit = SIZE_MAX,
                     bool from_high = false) const;
  /// The same, returned in a new vector.
  std::vector<Route> stored_within(const Prefix& region,
                                   std::size_t limit = SIZE_MAX,
                                   bool from_high = false) const {
    std::vector<Route> out;
    stored_within(region, out, limit, from_high);
    return out;
  }

  /// Bytes of the live image (chunks, level-2 blocks, the pointer arrays
  /// and the hop dictionary). Blocks parked in the pool or held by
  /// unreleased bundles are not counted (see BlockPool::Stats::bytes).
  /// O(1).
  std::size_t memory_bytes() const;
  /// Allocated (non-null) level-1 chunks / live level-2 blocks. O(1).
  std::size_t chunk_count() const { return chunk_count_; }
  std::size_t l2_block_count() const { return l2_count_; }
  /// The image's block pool (shared with the bundles it returned).
  std::shared_ptr<const BlockPool> pool() const { return pool_; }

 private:
  struct Staging;

  // Entry layout: L2 flag | 6-bit prefix length | 25-bit hop id; with
  // the flag set, the low 31 bits are a level-2 block id instead.
  static constexpr std::uint32_t kL2Flag = 0x8000'0000u;
  static constexpr unsigned kLenShift = 25;
  static constexpr std::uint32_t kIdMask = (1u << kLenShift) - 1;

  // Geometry: level-1 index bits (DIR-24-8), level-2 bits per block,
  // and log2 of level-1 entries per chunk (16 KiB).
  static constexpr unsigned kStride = 24;
  static constexpr unsigned kL2Bits = 32 - kStride;
  static constexpr unsigned kChunkBits = 12;
  static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;
  static constexpr std::uint32_t kL2Mask = (1u << kL2Bits) - 1;
  static constexpr std::size_t kChunkEntries = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kL2Entries = std::size_t{1} << kL2Bits;
  static constexpr std::size_t kChunkCount = std::size_t{1}
                                             << (kStride - kChunkBits);

  /// Reader-side load of an image word another thread may be storing.
  template <typename T>
  static T load(T& word) {
    return std::atomic_ref<T>(word).load(std::memory_order_acquire);
  }

  /// The route entry (or 0) covering `address`, level 2 resolved. Every
  /// load is acquire: a level-2 flag is followed into the block table,
  /// and a route entry into the hop array (hop_of), which must then hold
  /// any hop the entry's patch appended.
  std::uint32_t entry(Ipv4Address address) const {
    const std::uint32_t slot = address.value() >> kL2Bits;
    std::uint32_t* chunk =
        chunks_[slot >> kChunkBits].load(std::memory_order_acquire);
    if (!chunk) return 0;
    const std::uint32_t e = load(chunk[slot & kChunkMask]);
    if (!(e & kL2Flag)) return e;
    std::uint32_t* block =
        load(l2_.load(std::memory_order_acquire)[e & ~kL2Flag]);
    return load(block[address.value() & kL2Mask]);
  }
  /// The hop an entry names. Loaded only after the entry, so a reader
  /// that sees an entry also sees the hop array that holds its id.
  NextHop hop_of(std::uint32_t e) const {
    return hops_.load(std::memory_order_acquire)[e & kIdMask];
  }

  /// The live level-1 entry of `slot` (0 under a null chunk); writer side.
  std::uint32_t live_slot(std::uint32_t slot) const;
  /// Drops the staged patch and parks its fresh blocks.
  void discard() noexcept;

  /// Level 1, chunked: chunks_[slot >> kChunkBits][slot & kChunkMask].
  /// Null chunk = every slot kNoRoute.
  std::array<std::atomic<std::uint32_t*>, kChunkCount> chunks_{};
  /// Level-2 blocks by id (l2_cap_ slots); a freed id keeps its stale
  /// pointer, which no reader can reach any more.
  std::atomic<std::uint32_t**> l2_{nullptr};
  /// Interned next hops: hops[id] for id >= 1, hops[0] = kNoRoute.
  std::atomic<NextHop*> hops_{nullptr};

  // Writer-only state.
  std::array<std::uint16_t, kChunkCount> chunk_live_{};  ///< non-zero slots
  std::uint32_t l2_ids_ = 0;  ///< level-2 ids handed out so far
  std::uint32_t l2_cap_ = 0;
  std::vector<std::uint8_t> l2_live_;  ///< per id: named by a live slot
  std::uint32_t hop_count_ = 0;
  std::uint32_t hop_cap_ = 0;
  std::unordered_map<std::uint32_t, std::uint32_t> hop_ids_;  ///< hop -> id
  std::size_t chunk_count_ = 0;
  std::size_t l2_count_ = 0;
  std::size_t route_count_ = 0;
  std::shared_ptr<BlockPool> pool_;
  std::unique_ptr<Staging> staging_;
};

/// A staged patch: a move-only handle that FlatLookupTable::apply()
/// consumes. Destroying it unapplied discards the patch.
class FlatLookupTable::Patch {
 public:
  Patch() = default;
  Patch(Patch&& other) noexcept : table_(other.table_) {
    other.table_ = nullptr;
  }
  Patch& operator=(Patch&& other) noexcept {
    if (this != &other) {
      reset();
      table_ = other.table_;
      other.table_ = nullptr;
    }
    return *this;
  }
  ~Patch() { reset(); }

 private:
  friend class FlatLookupTable;
  explicit Patch(FlatLookupTable* table) : table_(table) {}
  void reset() noexcept {
    if (table_) table_->discard();
    table_ = nullptr;
  }

  FlatLookupTable* table_ = nullptr;
};

/// What one applied patch unlinked from the image: readers that began
/// before the patch may still hold it. Destroying the bundle parks its
/// chunks, level-2 blocks and level-2 ids in the pool (freeing blocks
/// beyond the pool's caps) and frees a superseded hop array or level-2
/// table, so destroy it only after a grace period.
class FlatLookupTable::Retired {
 public:
  Retired() = default;
  Retired(Retired&& other) noexcept { *this = std::move(other); }
  Retired& operator=(Retired&& other) noexcept {
    if (this != &other) {
      release();
      chunks_ = std::move(other.chunks_);
      l2_blocks_ = std::move(other.l2_blocks_);
      l2_ids_ = std::move(other.l2_ids_);
      l2_table_ = std::exchange(other.l2_table_, nullptr);
      hops_ = std::exchange(other.hops_, nullptr);
      pool_ = std::move(other.pool_);
    }
    return *this;
  }
  ~Retired() { release(); }

  bool empty() const {
    return chunks_.empty() && l2_blocks_.empty() && !l2_table_ && !hops_;
  }
  /// Chunks plus level-2 blocks unlinked.
  std::size_t blocks() const { return chunks_.size() + l2_blocks_.size(); }

 private:
  friend class FlatLookupTable;
  void release() noexcept;

  std::vector<std::uint32_t*> chunks_;
  std::vector<std::uint32_t*> l2_blocks_;
  std::vector<std::uint32_t> l2_ids_;
  std::uint32_t** l2_table_ = nullptr;
  NextHop* hops_ = nullptr;
  std::shared_ptr<BlockPool> pool_;
};

/// Free lists of the chunks, level-2 blocks and level-2 ids one image no
/// longer references. Blocks and ids are parked only once no reader can
/// reach them: a retire bundle parks what its patch unlinked when it is
/// destroyed (in the runtime, by epoch reclaim after the grace period),
/// and a patch parks fresh blocks it made and never published. One mutex
/// guards the lists, because a bundle may be destroyed on one thread
/// while the next patch is staged on another. Under AddressSanitizer a
/// parked block is poisoned until it is taken again, so reading one
/// still reports as a use-after-free.
class FlatLookupTable::BlockPool {
 public:
  /// Caps on parked blocks (1 MiB of chunks, 256 KiB of level-2 blocks);
  /// blocks parked beyond them are freed. Ids are never dropped.
  static constexpr std::size_t kMaxChunks = 64;
  static constexpr std::size_t kMaxL2Blocks = 256;

  struct Stats {
    std::uint64_t recycled = 0;   ///< blocks patches took from the pool
    std::uint64_t allocated = 0;  ///< blocks patches took from new
    std::size_t bytes = 0;        ///< bytes parked now
  };

  BlockPool();
  ~BlockPool();
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  Stats stats() const;

 private:
  friend class FlatLookupTable;

  struct Shelf {
    std::size_t entries = 0;  ///< uint32 entries per block
    std::size_t cap = 0;
    std::vector<std::uint32_t*> blocks;
  };

  /// A parked block if there is one, else a new one; contents undefined.
  std::uint32_t* take(Shelf& shelf);
  /// Parks `blocks` (frees those beyond the cap).
  void park(Shelf& shelf, std::span<std::uint32_t* const> blocks) noexcept;
  /// A parked level-2 id, if there is one.
  bool take_id(std::uint32_t& id);
  /// Parks level-2 ids; never allocates once reserve_ids() covered every
  /// id the image has handed out.
  void park_ids(std::span<const std::uint32_t> ids) noexcept;
  void reserve_ids(std::size_t count);

  mutable std::mutex mutex_;
  Shelf chunks_;
  Shelf l2_;
  std::vector<std::uint32_t> ids_;
  std::uint64_t recycled_ = 0;
  std::uint64_t allocated_ = 0;
};

}  // namespace clue::engine
