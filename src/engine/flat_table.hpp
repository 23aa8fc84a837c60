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
// a small per-table hop dictionary (a FIB has tens of distinct next
// hops, so a FIB is a label array over a tiny alphabet). Non-overlap
// makes Prefix(address, length) the exact stored prefix, so the image
// answers lookup_route() on its own — the runtime publishes chip
// versions with no trie at all. Entry 0 (id 0) is "no route".
//
// The image is the chip's only representation, and it is built and
// patched the way the paper's §III-C updates a disjoint TCAM: a full
// build paints a route list onto an empty image, and a copy-on-write
// successor applies a diff — erase these stored shapes, then write these
// routes. Non-overlap means the diff says exactly which slots change: an
// erased shape's slots become no-route and a written route's slots
// become its entry, with no cover lookup. Both run through one paint
// path, which checks the diff as it paints (an erase must name a stored
// shape; a write may only land on no-route slots or rewrite its own
// prefix) and collapses the uniform level-2 blocks it touched back into
// direct entries. Since every entry carries its length, the image also
// answers what the control role asks of a chip: its stored-route count
// (kept by every build, O(1)), the stored shapes within a region, and
// ordered runs from either end.
//
// Snapshots are immutable — the runtime publishes one per chip-table
// version behind an epoch-swapped pointer — but a full repaint per BGP
// update would move megabytes per publish. Instead the level-1 array is
// split into 4096-entry chunks held by raw pointer: a copy-on-write
// rebuild memcpys the 4096-slot pointer array (32 KiB, no reference
// counts) and copies only the chunks and level-2 blocks the diff
// touches, so rebuild cost tracks the size of the diff, not of the
// address space. A null chunk means "all no-route", which also keeps
// empty address space free. The hop dictionary is append-only and shared
// the same way: a rebuild that meets a new next hop copies it once and
// appends.
//
// Ownership is by version, not by reference count. A pointer belongs to
// a rebuild iff it differs from its predecessor's pointer at the same
// index (chunk index, level-2 block id, the one dictionary). When the
// rebuild completes, the successor takes over the whole live set and the
// predecessor keeps only what the successor replaced, so dropping a
// retired version releases exactly what one commit replaced and dropping
// the newest version frees its live set. Hence each image has at most
// one successor (a second throws std::logic_error), and a predecessor
// stays readable only while its successor lives. The runtime keeps both
// rules: it builds each version from the active one, and its epoch
// domain never reclaims a version before an older one.
//
// Ownership ends in the lineage's block pool. A lineage is a full build
// plus its COW successors (in the runtime, one chip), and every version
// holds the lineage's BlockPool by shared_ptr. A retired version that is
// dropped parks the blocks its successor replaced there instead of
// freeing them, and every build takes blocks from the pool before it
// calls new, so a steady-state commit reuses memory that is already
// resident. The pool is bounded (BlockPool::kMaxChunks,
// BlockPool::kMaxL2Blocks; blocks beyond the cap are freed) and frees
// its contents when the lineage's last version goes.
//
// Thread-safety: const after construction; safe to read from any number
// of threads once publication of the owning pointer synchronises with
// the readers (the runtime's epoch swap does).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
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

  /// Full build from a non-overlapping route list, in any order (a
  /// prefix listed twice is a rewrite: the last hop wins). Throws
  /// std::invalid_argument on overlapping routes. Every next hop value is
  /// encodable; only a table with more than 2^25 - 1 distinct next hops
  /// throws (std::length_error).
  explicit FlatLookupTable(std::span<const Route> routes);
  /// Full build from the trie's routes.
  explicit FlatLookupTable(const trie::BinaryTrie& table);

  /// Copy-on-write successor: `prev` with the stored shapes `erases`
  /// removed, then the routes `writes` written. Every level-1 chunk and
  /// level-2 block the diff does not touch is shared with `prev`. Each
  /// erase must name a stored shape exactly, and each write may cover
  /// only no-route slots (after the erases) or rewrite the hop of a
  /// stored prefix; anything else throws std::invalid_argument. On
  /// success this image owns the live set and `prev` keeps only what this
  /// build replaced: `prev` stays readable only while this image lives.
  /// Throws std::logic_error if `prev` already has a successor; on any
  /// throw `prev` is left untouched and may still be succeeded.
  FlatLookupTable(const FlatLookupTable& prev, std::span<const Prefix> erases,
                  std::span<const Route> writes);

  /// Releases what this image owns: frees its live set if it has no
  /// successor, otherwise parks what the successor replaced in the
  /// lineage's pool. Any version may be dropped from any thread, but a
  /// version must not be dropped while its successor is being built.
  ~FlatLookupTable();

  FlatLookupTable(const FlatLookupTable&) = delete;
  FlatLookupTable& operator=(const FlatLookupTable&) = delete;

  /// The hot path: 1-2 image loads plus one hop-dictionary load.
  /// kNoRoute when no prefix covers `address`.
  NextHop lookup(Ipv4Address address) const {
    return hops_[entry(address) & kIdMask];
  }

  /// The stored route covering `address`, in its exact stored shape
  /// (prefix, length and hop), or nullopt. Non-overlap makes the covering
  /// route unique, so this equals the source trie's lookup_route().
  std::optional<Route> lookup_route(Ipv4Address address) const {
    const std::uint32_t e = entry(address);
    if (e == 0) return std::nullopt;
    return Route{Prefix(address, e >> kLenShift), hops_[e & kIdMask]};
  }

  /// Requests the level-1 entry's cache line ahead of lookup(); the
  /// worker loop issues this across a whole job batch before resolving
  /// so the (tens of MB, cache-cold) array loads overlap.
  void prefetch(Ipv4Address address) const {
    const std::uint32_t slot = address.value() >> kL2Bits;
    const std::uint32_t* chunk = chunks_[slot >> kChunkBits];
    if (chunk) __builtin_prefetch(&chunk[slot & kChunkMask], 0, 1);
  }

  /// Stored routes (a collapsed level-2 block counts each of its tiles).
  /// O(1): every build keeps the count.
  std::size_t route_count() const { return route_count_; }

  /// The stored routes lying within `region`, in address order — a
  /// trie's routes_within() (Prefix() walks the whole image). With
  /// `limit`, only the `limit` routes nearest the region's low end — or
  /// its high end when `from_high` — are walked and returned (still in
  /// address order), so a run at one end costs the run, not the table.
  /// Steps by each route's length and over null chunks whole.
  std::vector<Route> stored_within(const Prefix& region,
                                   std::size_t limit = SIZE_MAX,
                                   bool from_high = false) const;

  /// Bytes of the image this snapshot answers from (chunks it
  /// references, shared or not, plus level-2 blocks, the pointer arrays
  /// and the dictionary). Blocks parked in the lineage's pool are not
  /// counted (see BlockPool::Stats::bytes). O(1).
  std::size_t memory_bytes() const;
  /// Allocated (non-null) level-1 chunks / live level-2 blocks. O(1).
  std::size_t chunk_count() const { return chunk_count_; }
  std::size_t l2_block_count() const { return l2_count_; }
  /// The block pool this image's lineage shares.
  std::shared_ptr<const BlockPool> pool() const { return pool_; }

 private:
  // Entry layout: L2 flag | 6-bit prefix length | 25-bit hop id; with
  // the flag set, the low 31 bits are a level-2 block id instead.
  static constexpr std::uint32_t kL2Flag = 0x8000'0000u;
  static constexpr unsigned kLenShift = 25;
  static constexpr std::uint32_t kIdMask = (1u << kLenShift) - 1;

  // Geometry: level-1 index bits (DIR-24-8), level-2 bits per block,
  // and log2 of level-1 entries per copy-on-write chunk (16 KiB), so a
  // rebuild copies 2^(kStride - kChunkBits) chunk pointers.
  static constexpr unsigned kStride = 24;
  static constexpr unsigned kL2Bits = 32 - kStride;
  static constexpr unsigned kChunkBits = 12;
  static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;
  static constexpr std::uint32_t kL2Mask = (1u << kL2Bits) - 1;
  static constexpr std::size_t kChunkEntries = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kL2Entries = std::size_t{1} << kL2Bits;
  static constexpr std::size_t kChunkCount = std::size_t{1}
                                             << (kStride - kChunkBits);

  /// Interned next hops: hops[id] for id >= 1, hops[0] = kNoRoute.
  struct HopDict {
    std::vector<NextHop> hops{netbase::kNoRoute};
    std::unordered_map<std::uint32_t, std::uint32_t> ids;  ///< hop -> id
  };

  /// Rebuild-time state: the predecessor whose pointers this build
  /// shares (null for a full build, which owns everything it holds), and
  /// the predecessor's chunks and level-2 blocks this build replaced so
  /// far — each is recorded once, when its slot stops holding it.
  struct Builder {
    const FlatLookupTable* prev = nullptr;
    std::vector<std::uint32_t*> replaced_chunks;
    std::vector<std::uint32_t*> replaced_l2;
  };

  /// The route entry (or 0) covering `address`, level 2 resolved.
  std::uint32_t entry(Ipv4Address address) const {
    const std::uint32_t slot = address.value() >> kL2Bits;
    const std::uint32_t* chunk = chunks_[slot >> kChunkBits];
    if (!chunk) return 0;
    const std::uint32_t e = chunk[slot & kChunkMask];
    if (!(e & kL2Flag)) return e;
    return l2_[e & ~kL2Flag][address.value() & kL2Mask];
  }

  /// The level-1 entry of `slot` (0 under a null chunk).
  std::uint32_t slot_entry(std::uint32_t slot) const {
    const std::uint32_t* chunk = chunks_[slot >> kChunkBits];
    return chunk ? chunk[slot & kChunkMask] : 0;
  }

  /// Whether this image (not its predecessor `prev`, null for a full
  /// build) owns chunk `i` / level-2 block `id` / the dictionary: the
  /// pointer differs from the predecessor's at the same index.
  bool owns_chunk(std::size_t i, const FlatLookupTable* prev) const {
    return !prev || chunks_[i] != prev->chunks_[i];
  }
  bool owns_l2(std::uint32_t id, const FlatLookupTable* prev) const {
    return !prev || id >= prev->l2_.size() || l2_[id] != prev->l2_[id];
  }
  bool owns_dict(const FlatLookupTable* prev) const {
    return !prev || dict_ != prev->dict_;
  }
  /// Frees every block and the dictionary this image holds that `prev`
  /// does not (everything when `prev` is null).
  void free_unshared(const FlatLookupTable* prev) noexcept;
  /// The one paint path, for full builds and diffs alike: paint()s the
  /// erases, then the writes. On a throw frees this build's own blocks (the
  /// predecessor keeps owning its set) and rethrows.
  void build(const FlatLookupTable* prev, std::span<const Prefix> erases,
             std::span<const Route> writes);
  /// Paints `prefix` with the route entry `value`: 0 erases the stored
  /// shape `prefix` (throws if it is not stored); otherwise a write over
  /// no-route slots or a rewrite of the stored `prefix` (throws if it
  /// would overlap another stored route). A level-2 block it leaves
  /// uniform collapses back to a direct entry.
  void paint(const Prefix& prefix, std::uint32_t value, Builder& b);

  /// Chunk writable by this rebuild; takes a block from the pool (zero
  /// or copy) on first touch. `slot_chunk` is the chunk index.
  std::uint32_t* writable_chunk(std::size_t slot_chunk, Builder& b);
  /// Level-2 block of level-1 slot `slot`, writable by this rebuild: a
  /// block the predecessor owns is copied first, and a direct entry (no
  /// route, or a collapsed block's tile) is expanded into a new block.
  std::uint32_t* writable_block(std::uint32_t slot, Builder& b);
  /// Sets level-1 slots [lo, hi] to the direct value `entry`. Whole-chunk
  /// clears to 0 drop the chunk back to null. A route `entry` may only
  /// overwrite no-route slots or its own prefix: false (stopping midway)
  /// when another route is in the way.
  bool fill_direct(std::uint32_t lo, std::uint32_t hi, std::uint32_t entry,
                   Builder& b);
  /// Drops chunk `slot_chunk` back to null: parks it now if this build
  /// made it, else records it as replaced.
  void drop_chunk(std::size_t slot_chunk, Builder& b);
  /// drop_chunk() if chunk `slot_chunk` holds no route any more.
  void drop_if_empty(std::size_t slot_chunk, Builder& b);
  void release_l2(std::uint32_t entry, Builder& b);
  /// A level-2 id holding an uninitialised block from the pool.
  std::uint32_t alloc_l2();
  /// The route entry for `route`, interning its hop on first sight.
  std::uint32_t encode(const Route& route, Builder& b);
  /// Completes a build: hands the predecessor the set this build
  /// replaced (the only write to the predecessor) and publishes the
  /// dictionary to lookup().
  void finish(Builder& b) noexcept;

  /// Level 1, chunked: chunks_[slot >> kChunkBits][slot & kChunkMask].
  /// Null chunk = every slot kNoRoute.
  std::array<std::uint32_t*, kChunkCount> chunks_{};
  /// Level-2 blocks by id; freed slots are null and listed in l2_free_.
  std::vector<std::uint32_t*> l2_;
  std::vector<std::uint32_t> l2_free_;
  /// Shared with the predecessor until a rebuild meets a new hop.
  HopDict* dict_ = nullptr;
  const NextHop* hops_ = nullptr;  ///< dict_->hops.data(), for lookup()
  std::size_t chunk_count_ = 0;
  std::size_t l2_count_ = 0;
  std::size_t route_count_ = 0;
  /// The lineage's pool: made by the full build, shared by successors.
  std::shared_ptr<BlockPool> pool_;

  /// Set once, by the successor's finish(): from then on this image owns
  /// only the blocks and dictionary the successor replaced. Readers never
  /// touch these fields.
  struct Replaced {
    bool has_successor = false;
    std::vector<std::uint32_t*> chunks;
    std::vector<std::uint32_t*> l2;
    HopDict* dict = nullptr;
  };
  mutable Replaced replaced_;
};

/// Free lists of the chunks and level-2 blocks one lineage no longer
/// references. Blocks are parked only once no version can read them: a
/// retired version parks what its successor replaced when it is dropped
/// (in the runtime, by epoch reclaim after the grace period), and a build
/// parks blocks it made and discarded itself. One mutex guards the lists,
/// because a version may be dropped on one thread while the next version
/// is being built on another. Under AddressSanitizer a parked block is
/// poisoned until it is taken again, so reading one still reports as a
/// use-after-free.
class FlatLookupTable::BlockPool {
 public:
  /// Caps on parked blocks (1 MiB of chunks, 256 KiB of level-2 blocks);
  /// blocks parked beyond them are freed.
  static constexpr std::size_t kMaxChunks = 64;
  static constexpr std::size_t kMaxL2Blocks = 256;

  struct Stats {
    std::uint64_t recycled = 0;   ///< blocks builds took from the pool
    std::uint64_t allocated = 0;  ///< blocks builds took from new
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

  mutable std::mutex mutex_;
  Shelf chunks_;
  Shelf l2_;
  std::uint64_t recycled_ = 0;
  std::uint64_t allocated_ = 0;
};

}  // namespace clue::engine
