#include "engine/flat_table.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace clue::engine {

namespace {

constexpr std::int32_t kNone = -1;
// Scratch a patch keeps for the next one: chunk overlays (~17 KiB each)
// and level-2 block copies (1 KiB each). A migration-sized patch may use
// more; the rest are freed when it completes.
constexpr std::size_t kKeptOverlays = 16;
constexpr std::size_t kKeptCopies = 64;

// A parked block stays poisoned until it is taken again, so ASan reports
// a read through a stale pointer as a use-after-free.
void poison(const std::uint32_t* block, std::size_t entries) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(block, entries * sizeof(std::uint32_t));
#else
  (void)block;
  (void)entries;
#endif
}

void unpoison(const std::uint32_t* block, std::size_t entries) {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(block, entries * sizeof(std::uint32_t));
#else
  (void)block;
  (void)entries;
#endif
}

template <typename T>
void publish(T& word, T value) {
  std::atomic_ref<T>(word).store(value, std::memory_order_release);
}

}  // namespace

// ------------------------------------------------------------- block pool

FlatLookupTable::BlockPool::BlockPool()
    : chunks_{kChunkEntries, kMaxChunks, {}},
      l2_{kL2Entries, kMaxL2Blocks, {}} {
  // Reserved up front so park() never allocates (it runs in destructors).
  chunks_.blocks.reserve(chunks_.cap);
  l2_.blocks.reserve(l2_.cap);
}

FlatLookupTable::BlockPool::~BlockPool() {
  for (Shelf* shelf : {&chunks_, &l2_}) {
    for (std::uint32_t* block : shelf->blocks) {
      unpoison(block, shelf->entries);
      delete[] block;
    }
  }
}

FlatLookupTable::BlockPool::Stats FlatLookupTable::BlockPool::stats() const {
  const std::lock_guard lock(mutex_);
  return Stats{recycled_, allocated_,
               (chunks_.blocks.size() * chunks_.entries +
                l2_.blocks.size() * l2_.entries) *
                   sizeof(std::uint32_t)};
}

std::uint32_t* FlatLookupTable::BlockPool::take(Shelf& shelf) {
  {
    const std::lock_guard lock(mutex_);
    if (!shelf.blocks.empty()) {
      std::uint32_t* block = shelf.blocks.back();
      shelf.blocks.pop_back();
      ++recycled_;
      unpoison(block, shelf.entries);
      return block;
    }
    ++allocated_;
  }
  return new std::uint32_t[shelf.entries];
}

void FlatLookupTable::BlockPool::park(
    Shelf& shelf, std::span<std::uint32_t* const> blocks) noexcept {
  const std::lock_guard lock(mutex_);
  for (std::uint32_t* block : blocks) {
    if (shelf.blocks.size() < shelf.cap) {
      poison(block, shelf.entries);
      shelf.blocks.push_back(block);
    } else {
      delete[] block;
    }
  }
}

bool FlatLookupTable::BlockPool::take_id(std::uint32_t& id) {
  const std::lock_guard lock(mutex_);
  if (ids_.empty()) return false;
  id = ids_.back();
  ids_.pop_back();
  return true;
}

void FlatLookupTable::BlockPool::park_ids(
    std::span<const std::uint32_t> ids) noexcept {
  const std::lock_guard lock(mutex_);
  ids_.insert(ids_.end(), ids.begin(), ids.end());
}

void FlatLookupTable::BlockPool::reserve_ids(std::size_t count) {
  const std::lock_guard lock(mutex_);
  ids_.reserve(count);
}

void FlatLookupTable::Retired::release() noexcept {
  if (pool_) {
    pool_->park(pool_->chunks_, chunks_);
    pool_->park(pool_->l2_, l2_blocks_);
    pool_->park_ids(l2_ids_);
  }
  delete[] l2_table_;
  delete[] hops_;
  chunks_.clear();
  l2_blocks_.clear();
  l2_ids_.clear();
  l2_table_ = nullptr;
  hops_ = nullptr;
  pool_.reset();
}

// ---------------------------------------------------------------- staging

// The staged patch: everything stage() computed and apply() publishes.
// Touched chunks and level-2 blocks are found by index in O(1); live
// memory is only read.
struct FlatLookupTable::Staging {
  /// Pending values over one live chunk: values[i] where `dirty` has bit
  /// i, else the live slot — or 0 once the chunk was cleared whole.
  struct Overlay {
    bool cleared = false;
    std::array<std::uint64_t, kChunkEntries / 64> dirty{};
    std::array<std::uint32_t, kChunkEntries> values{};
  };

  /// One touched chunk: a fresh one (the live chunk is null) painted
  /// directly, or an overlay over the live one.
  struct Chunk {
    std::uint32_t index = 0;
    std::uint32_t* live = nullptr;
    std::uint32_t* fresh = nullptr;
    Overlay* overlay = nullptr;
    std::uint32_t nonzero = 0;  ///< non-zero slots once the patch is in

    bool dirty(std::uint32_t i) const {
      return (overlay->dirty[i >> 6] >> (i & 63)) & 1;
    }
    std::uint32_t get(std::uint32_t i) const {
      if (fresh) return fresh[i];
      if (dirty(i)) return overlay->values[i];
      return overlay->cleared ? 0 : live[i];
    }
    void set(std::uint32_t i, std::uint32_t value) {
      nonzero = nonzero + (value != 0) - (get(i) != 0);
      if (fresh) {
        fresh[i] = value;
      } else {
        overlay->dirty[i >> 6] |= std::uint64_t{1} << (i & 63);
        overlay->values[i] = value;
      }
    }
    /// Every slot to 0. Only erases clear, and they never meet a fresh
    /// chunk: erases run before writes, and only writes make one.
    void clear() {
      overlay->cleared = true;
      overlay->dirty.fill(0);
      nonzero = 0;
    }
  };

  /// One touched level-2 block: a fresh block (from a direct entry, under
  /// a new id) or a private copy of a live one.
  struct Block {
    std::uint32_t slot = 0;
    std::uint32_t id = 0;
    std::uint32_t* entries = nullptr;
    bool fresh = false;
    bool kept = false;  ///< still named by its slot, not uniform
  };

  explicit Staging(FlatLookupTable& table) : t(table) {
    chunk_at.fill(kNone);
  }

  FlatLookupTable& t;
  bool active = false;
  std::size_t route_count = 0;
  std::uint32_t next_id = 0;  ///< level-2 ids handed out, fresh ones too
  std::array<std::int32_t, kChunkCount> chunk_at;  ///< into `chunks`
  std::vector<Chunk> chunks;
  std::vector<std::int32_t> block_at;  ///< per level-2 id, into `blocks`
  std::vector<Block> blocks;
  std::vector<std::unique_ptr<Overlay>> overlays;
  std::size_t overlays_used = 0;
  std::vector<std::unique_ptr<std::uint32_t[]>> copies;
  std::size_t copies_used = 0;
  /// Hops the patch interns: ids hop_count_ + i.
  std::vector<NextHop> hops;
  std::unordered_map<std::uint32_t, std::uint32_t> hop_ids;
  NextHop* grown_hops = nullptr;
  std::uint32_t grown_hop_cap = 0;
  std::uint32_t** grown_l2 = nullptr;
  std::uint32_t grown_l2_cap = 0;
  /// What apply() unlinks.
  Retired retired;

  // Records are listed before anything is taken for them, so a throw
  // leaves discard() a complete list to return.
  Chunk& chunk(std::size_t index) {
    std::int32_t& at = chunk_at[index];
    if (at != kNone) return chunks[at];
    chunks.emplace_back();
    at = static_cast<std::int32_t>(chunks.size() - 1);
    Chunk& c = chunks.back();
    c.index = static_cast<std::uint32_t>(index);
    c.live = t.chunks_[index].load(std::memory_order_relaxed);
    if (c.live) {
      c.overlay = next_overlay();
      c.nonzero = t.chunk_live_[index];
    } else {
      c.fresh = t.pool_->take(t.pool_->chunks_);
      std::fill_n(c.fresh, kChunkEntries, 0u);
    }
    return c;
  }

  Overlay* next_overlay() {
    if (overlays_used == overlays.size()) {
      overlays.push_back(std::make_unique<Overlay>());
    }
    Overlay* overlay = overlays[overlays_used++].get();
    overlay->cleared = false;
    overlay->dirty.fill(0);
    return overlay;
  }

  std::uint32_t* next_copy() {
    if (copies_used == copies.size()) {
      copies.push_back(
          std::make_unique_for_overwrite<std::uint32_t[]>(kL2Entries));
    }
    return copies[copies_used++].get();
  }

  std::uint32_t slot(std::uint32_t s) const {
    const std::int32_t at = chunk_at[s >> kChunkBits];
    return at == kNone ? t.live_slot(s) : chunks[at].get(s & kChunkMask);
  }
  void set_slot(std::uint32_t s, std::uint32_t value) {
    chunk(s >> kChunkBits).set(s & kChunkMask, value);
  }

  Block* staged(std::uint32_t id) {
    return id < block_at.size() && block_at[id] != kNone
               ? &blocks[block_at[id]]
               : nullptr;
  }
  const std::uint32_t* block_of(std::uint32_t entry) {
    const std::uint32_t id = entry & ~kL2Flag;
    if (const Block* b = staged(id)) return b->entries;
    return t.l2_.load(std::memory_order_relaxed)[id];
  }
  /// A level-2 entry whose staged block this patch emptied: the slot reads
  /// as no-route once the patch collapses it.
  bool emptied(std::uint32_t entry) {
    if (!(entry & kL2Flag)) return false;
    const Block* b = staged(entry & ~kL2Flag);
    return b && std::all_of(b->entries, b->entries + kL2Entries,
                            [](std::uint32_t v) { return v == 0; });
  }

  void paint(const Prefix& prefix, std::uint32_t value);
  bool fill_direct(std::uint32_t lo, std::uint32_t hi, std::uint32_t entry);
  std::uint32_t* writable_block(std::uint32_t s);
  /// Lists `block`; writable_block() made room for it.
  Block& add_block(const Block& block);
  std::uint32_t encode(const Route& route);
  void finish();
  void reset() noexcept;
};

std::uint32_t FlatLookupTable::live_slot(std::uint32_t slot) const {
  const std::uint32_t* chunk =
      chunks_[slot >> kChunkBits].load(std::memory_order_relaxed);
  return chunk ? chunk[slot & kChunkMask] : 0;
}

void FlatLookupTable::Staging::paint(const Prefix& prefix,
                                     std::uint32_t value) {
  const unsigned length = prefix.length();
  const std::uint32_t lo = prefix.range_low().value();
  const std::uint32_t hi = prefix.range_high().value();
  const std::uint32_t s = lo >> kL2Bits;
  const std::uint32_t entry = slot(s);
  const std::uint32_t first =
      (entry & kL2Flag) ? block_of(entry)[lo & kL2Mask] : entry;
  // Non-overlap: `prefix` is stored iff the entry at its first address
  // has its length, and then that entry fills its whole range. An erase
  // must find it; a write must find it or no route anywhere in its range
  // (checked as it paints).
  const bool stored = first != 0 && (first >> kLenShift) == length;
  bool fits = stored || value != 0;
  if (fits && length <= kStride) {
    fits = fill_direct(s, hi >> kL2Bits, value);
  } else if (fits) {
    std::uint32_t* block = writable_block(s);
    std::uint32_t* dst = block + (lo & kL2Mask);
    std::uint32_t* end = dst + (hi - lo) + 1;
    fits = stored ||
           std::all_of(dst, end, [](std::uint32_t v) { return v == 0; });
    if (fits) std::fill(dst, end, value);
  }
  if (!fits) {
    throw std::invalid_argument(
        "FlatLookupTable: " + std::string(value ? "write " : "erase ") +
        prefix.to_string() +
        (value ? " overlaps a stored route" : " names no stored route"));
  }
  route_count = route_count - (value == 0) + (value != 0 && !stored);
}

bool FlatLookupTable::Staging::fill_direct(std::uint32_t lo, std::uint32_t hi,
                                           std::uint32_t entry) {
  const std::uint32_t shape = entry >> kLenShift;
  // A write may only land on no-route slots, on its own prefix
  // (non-overlap: a same-length entry in its range is that prefix), or on
  // a slot whose level-2 block this patch emptied.
  const auto free = [&](std::uint32_t v) {
    return v == 0 || v >> kLenShift == shape || emptied(v);
  };
  for (std::uint64_t at = lo; at <= hi; at = (at | kChunkMask) + 1) {
    const std::size_t index = at >> kChunkBits;
    const std::uint32_t in_lo = at & kChunkMask;
    const std::uint32_t in_hi =
        std::min<std::uint64_t>(hi, at | kChunkMask) & kChunkMask;
    if (entry == 0 && chunk_at[index] == kNone &&
        !t.chunks_[index].load(std::memory_order_relaxed)) {
      continue;  // already no-route
    }
    Chunk& c = chunk(index);
    if (entry == 0 && in_lo == 0 && in_hi == kChunkMask) {
      // A whole-chunk clear: apply() unlinks the chunk with one store.
      c.clear();
    } else if (c.fresh) {
      // A write (see clear()) straight into the new chunk.
      std::uint32_t* p = c.fresh;
      std::uint32_t before = 0;
      for (std::uint32_t i = in_lo; i <= in_hi; ++i) {
        if (p[i] == 0) continue;
        if (!free(p[i])) return false;
        ++before;
      }
      std::fill(p + in_lo, p + in_hi + 1, entry);
      c.nonzero += in_hi - in_lo + 1 - before;
    } else {
      if (entry != 0) {
        for (std::uint32_t i = in_lo; i <= in_hi; ++i) {
          if (!free(c.get(i))) return false;
        }
      }
      for (std::uint32_t i = in_lo; i <= in_hi; ++i) c.set(i, entry);
    }
  }
  return true;
}

std::uint32_t* FlatLookupTable::Staging::writable_block(std::uint32_t s) {
  const std::uint32_t entry = slot(s);
  // Room first: once an id is taken, listing its block must not throw.
  // Every id, live or recycled, is below next_id.
  if (blocks.size() == blocks.capacity()) {
    blocks.reserve(2 * blocks.size() + 16);
  }
  if (next_id >= block_at.size()) {
    block_at.resize(std::max<std::size_t>(next_id + 1, 2 * block_at.size()),
                    kNone);
  }
  if (entry & kL2Flag) {
    const std::uint32_t id = entry & ~kL2Flag;
    if (Block* b = staged(id)) return b->entries;
    // First touch of a live block: edit a private copy; apply() stores
    // the entries that differ.
    Block& b = add_block(Block{s, id, nullptr, false, false});
    b.entries = next_copy();
    std::memcpy(b.entries, t.l2_.load(std::memory_order_relaxed)[id],
                kL2Entries * sizeof(std::uint32_t));
    return b.entries;
  }
  // A direct entry covers the whole /24: no route, or the tile of a
  // collapsed block, which stands for 2^(len-24) same-hop routes. It
  // expands into a fresh block under an id no reader can still hold:
  // one parked after its grace period, or a new one.
  if (next_id >= kL2Flag) {
    throw std::length_error("FlatLookupTable: level-2 block id overflow");
  }
  std::uint32_t id = 0;
  if (!t.pool_->take_id(id)) id = next_id++;  // block_at has room for it
  Block& b = add_block(Block{s, id, nullptr, true, false});
  b.entries = t.pool_->take(t.pool_->l2_);
  std::fill_n(b.entries, kL2Entries, entry);
  set_slot(s, kL2Flag | id);
  return b.entries;
}

FlatLookupTable::Staging::Block& FlatLookupTable::Staging::add_block(
    const Block& block) {
  block_at[block.id] = static_cast<std::int32_t>(blocks.size());
  blocks.push_back(block);
  return blocks.back();
}

std::uint32_t FlatLookupTable::Staging::encode(const Route& route) {
  const std::uint32_t hop = netbase::to_index(route.next_hop);
  std::uint32_t id = 0;
  if (const auto it = t.hop_ids_.find(hop); it != t.hop_ids_.end()) {
    id = it->second;
  } else if (const auto jt = hop_ids.find(hop); jt != hop_ids.end()) {
    id = jt->second;
  } else {
    // First sight of this hop: apply() appends it before any entry
    // naming it is stored.
    const std::size_t next = t.hop_count_ + hops.size();
    if (next > kIdMask) {
      throw std::length_error("FlatLookupTable: next-hop id overflow");
    }
    id = static_cast<std::uint32_t>(next);
    hops.push_back(route.next_hop);
    hop_ids.emplace(hop, id);
  }
  return (route.prefix.length() << kLenShift) | id;
}

void FlatLookupTable::Staging::finish() {
  // A uniform block (after erases merged the survivors, or once a
  // same-hop run tiles the slot) collapses back to a direct entry —
  // keeps level-2 memory from ratcheting up. Shape survives: a uniform
  // block is tiled by same-length same-hop routes, so
  // Prefix(address, length) still names each one. A live block its slot
  // no longer names (collapsed, or overwritten by a direct write) is
  // unlinked.
  for (Block& b : blocks) {
    b.kept = slot(b.slot) == (kL2Flag | b.id);
    const std::uint32_t uniform = b.entries[0];
    if (b.kept && std::all_of(b.entries, b.entries + kL2Entries,
                              [uniform](std::uint32_t v) {
                                return v == uniform;
                              })) {
      set_slot(b.slot, uniform);
      b.kept = false;
    }
    if (!b.fresh && !b.kept) {
      retired.l2_blocks_.push_back(t.l2_.load(std::memory_order_relaxed)[b.id]);
      retired.l2_ids_.push_back(b.id);
    }
  }
  // A live chunk the patch empties is unlinked whole.
  for (const Chunk& c : chunks) {
    if (c.live && c.nonzero == 0) retired.chunks_.push_back(c.live);
  }
  if (next_id > t.l2_cap_) {
    const std::uint32_t cap = std::max({next_id, 2 * t.l2_cap_, 64u});
    grown_l2 = new std::uint32_t*[cap]();
    if (t.l2_ids_ > 0) {
      std::copy_n(t.l2_.load(std::memory_order_relaxed), t.l2_ids_,
                  grown_l2);
    }
    grown_l2_cap = cap;
    t.l2_live_.reserve(cap);
    // Every id may end up parked at once.
    t.pool_->reserve_ids(cap);
  }
  if (!hops.empty()) {
    const std::size_t need = t.hop_count_ + hops.size();
    if (need > t.hop_cap_) {
      const std::size_t cap =
          std::max<std::size_t>(need, 2 * std::size_t{t.hop_cap_});
      grown_hops = new NextHop[cap];
      const NextHop* live = t.hops_.load(std::memory_order_relaxed);
      std::copy_n(live, t.hop_count_, grown_hops);
      std::copy(hops.begin(), hops.end(), grown_hops + t.hop_count_);
      grown_hop_cap = static_cast<std::uint32_t>(cap);
    }
    // Room for apply()'s node moves. Only ever grown, geometrically: a
    // reserve() below the bucket count would shrink and rehash the map.
    const std::size_t ids = t.hop_ids_.size() + hop_ids.size();
    if (!t.hop_ids_.empty() &&
        ids > t.hop_ids_.bucket_count() * t.hop_ids_.max_load_factor()) {
      t.hop_ids_.reserve(2 * ids);
    }
  }
}

void FlatLookupTable::Staging::reset() noexcept {
  for (const Chunk& c : chunks) chunk_at[c.index] = kNone;
  for (const Block& b : blocks) block_at[b.id] = kNone;
  chunks.clear();
  blocks.clear();
  hops.clear();
  hop_ids.clear();
  if (overlays.size() > kKeptOverlays) overlays.resize(kKeptOverlays);
  if (copies.size() > kKeptCopies) copies.resize(kKeptCopies);
  overlays_used = 0;
  copies_used = 0;
  active = false;
}

// ------------------------------------------------------------------ image

FlatLookupTable::FlatLookupTable(std::span<const Route> routes)
    : pool_(std::make_shared<BlockPool>()),
      staging_(std::make_unique<Staging>(*this)) {
  hop_cap_ = 16;
  NextHop* hops = new NextHop[hop_cap_];
  hops[0] = netbase::kNoRoute;
  hop_count_ = 1;
  hops_.store(hops, std::memory_order_relaxed);
  try {
    // Nothing is live yet: every chunk and block the build paints is
    // fresh, and the bundle holds at most the first hop array.
    apply(stage({}, routes));
  } catch (...) {
    delete[] hops_.load(std::memory_order_relaxed);
    throw;
  }
}

FlatLookupTable::FlatLookupTable(const trie::BinaryTrie& table)
    : FlatLookupTable(std::span<const Route>(table.routes())) {}

FlatLookupTable::~FlatLookupTable() {
  for (auto& chunk : chunks_) delete[] chunk.load(std::memory_order_relaxed);
  std::uint32_t** table = l2_.load(std::memory_order_relaxed);
  for (std::uint32_t id = 0; id < l2_ids_; ++id) {
    if (l2_live_[id]) delete[] table[id];
  }
  delete[] table;
  delete[] hops_.load(std::memory_order_relaxed);
}

FlatLookupTable::Patch FlatLookupTable::stage(std::span<const Prefix> erases,
                                              std::span<const Route> writes) {
  Staging& s = *staging_;
  if (s.active) {
    throw std::logic_error("FlatLookupTable: a patch is already staged");
  }
  s.active = true;
  s.route_count = route_count_;
  s.next_id = l2_ids_;
  // From here a throw drops the handle, which discards the patch.
  Patch patch(this);
  for (const Prefix& prefix : erases) s.paint(prefix, 0);
  for (const Route& route : writes) {
    s.paint(route.prefix, s.encode(route));
  }
  s.finish();
  return patch;
}

void FlatLookupTable::discard() noexcept {
  Staging& s = *staging_;
  for (const Staging::Chunk& c : s.chunks) {
    if (c.fresh) pool_->park(pool_->chunks_, {&c.fresh, 1});
  }
  for (const Staging::Block& b : s.blocks) {
    if (!b.fresh) continue;
    if (b.entries) pool_->park(pool_->l2_, {&b.entries, 1});
    // A recycled id goes back; a new one was never handed out.
    if (b.id < l2_ids_) pool_->park_ids({&b.id, 1});
  }
  delete[] s.grown_l2;
  s.grown_l2 = nullptr;
  delete[] s.grown_hops;
  s.grown_hops = nullptr;
  // The blocks listed for unlinking stay live.
  s.retired.chunks_.clear();
  s.retired.l2_blocks_.clear();
  s.retired.l2_ids_.clear();
  s.reset();
}

FlatLookupTable::Retired FlatLookupTable::apply(Patch patch) noexcept {
  if (patch.table_ != this) return {};  // not staged here
  Staging& s = *staging_;
  patch.table_ = nullptr;  // consumed: nothing left to discard

  // 1. New hops first: an entry naming one must find it in the array a
  //    reader loads after the entry.
  if (s.grown_hops) {
    s.retired.hops_ = hops_.load(std::memory_order_relaxed);
    hops_.store(std::exchange(s.grown_hops, nullptr),
                std::memory_order_release);
    hop_cap_ = s.grown_hop_cap;
  } else {
    std::copy(s.hops.begin(), s.hops.end(),
              hops_.load(std::memory_order_relaxed) + hop_count_);
  }
  hop_count_ += static_cast<std::uint32_t>(s.hops.size());
  // Node moves: finish() reserved the buckets, so nothing allocates.
  if (hop_ids_.empty()) {
    hop_ids_.swap(s.hop_ids);
  } else {
    while (!s.hop_ids.empty()) {
      hop_ids_.insert(s.hop_ids.extract(s.hop_ids.begin()));
    }
  }

  // 2. A grown level-2 table holds every live id's block already.
  std::uint32_t** table = l2_.load(std::memory_order_relaxed);
  if (s.grown_l2) {
    s.retired.l2_table_ = table;
    table = std::exchange(s.grown_l2, nullptr);
    l2_.store(table, std::memory_order_release);
    l2_cap_ = s.grown_l2_cap;
  }
  l2_live_.resize(l2_cap_, 0);  // within the capacity finish() reserved

  // 3. Fresh blocks the patch keeps are bound to their ids before any
  //    slot names them; the rest were never published and park now,
  //    with their ids.
  for (const Staging::Block& b : s.blocks) {
    if (b.kept && b.fresh) {
      publish(table[b.id], b.entries);
      l2_live_[b.id] = 1;
      ++l2_count_;
    } else if (b.fresh) {
      pool_->park(pool_->l2_, {&b.entries, 1});
      pool_->park_ids({&b.id, 1});
    } else if (!b.kept) {
      l2_live_[b.id] = 0;
      --l2_count_;
    }
  }

  // 4. Level 1: one store per slot whose value changes; a chunk the
  //    patch creates or empties moves by one pointer store.
  for (const Staging::Chunk& c : s.chunks) {
    if (c.fresh) {
      if (c.nonzero > 0) {
        chunks_[c.index].store(c.fresh, std::memory_order_release);
        ++chunk_count_;
      } else {
        pool_->park(pool_->chunks_, {&c.fresh, 1});
      }
    } else if (c.nonzero == 0) {
      chunks_[c.index].store(nullptr, std::memory_order_release);
      --chunk_count_;
    } else if (c.overlay->cleared) {
      for (std::uint32_t i = 0; i < kChunkEntries; ++i) {
        const std::uint32_t value = c.get(i);
        if (value != c.live[i]) publish(c.live[i], value);
      }
    } else {
      for (std::uint32_t word = 0; word < c.overlay->dirty.size(); ++word) {
        for (std::uint64_t bits = c.overlay->dirty[word]; bits != 0;
             bits &= bits - 1) {
          const std::uint32_t i =
              word * 64 + static_cast<std::uint32_t>(__builtin_ctzll(bits));
          const std::uint32_t value = c.overlay->values[i];
          if (value != c.live[i]) publish(c.live[i], value);
        }
      }
    }
    chunk_live_[c.index] = static_cast<std::uint16_t>(c.nonzero);
  }

  // 5. Live blocks the patch keeps are edited in place, entry by entry.
  for (const Staging::Block& b : s.blocks) {
    if (b.fresh || !b.kept) continue;
    std::uint32_t* live = table[b.id];
    for (std::size_t i = 0; i < kL2Entries; ++i) {
      if (b.entries[i] != live[i]) publish(live[i], b.entries[i]);
    }
  }

  route_count_ = s.route_count;
  l2_ids_ = s.next_id;
  Retired out = std::move(s.retired);
  if (!out.empty()) out.pool_ = pool_;
  s.retired = Retired();
  s.reset();
  return out;
}

// ------------------------------------------------------------------ reads

void FlatLookupTable::stored_within(const Prefix& region,
                                    std::vector<Route>& out,
                                    std::size_t limit, bool from_high) const {
  const std::size_t start = out.size();
  const std::int64_t lo = region.range_low().value();
  const std::int64_t hi = region.range_high().value();
  std::int64_t at = from_high ? hi : lo;
  while (out.size() - start < limit && at >= lo && at <= hi) {
    const auto address = static_cast<std::uint32_t>(at);
    const std::uint32_t slot = address >> kL2Bits;
    std::uint32_t* chunk =
        chunks_[slot >> kChunkBits].load(std::memory_order_acquire);
    std::uint32_t entry = chunk ? load(chunk[slot & kChunkMask]) : 0;
    // Steps over one span at a time; `bits` is its log2: a null chunk,
    // an empty slot, one empty level-2 address, or the stored route here.
    unsigned bits = chunk ? kL2Bits : kL2Bits + kChunkBits;
    if (entry & kL2Flag) {
      std::uint32_t* block =
          load(l2_.load(std::memory_order_acquire)[entry & ~kL2Flag]);
      entry = load(block[address & kL2Mask]);
      bits = 0;
    }
    if (entry != 0) bits = 32 - (entry >> kLenShift);
    const std::int64_t span_lo = (at >> bits) << bits;
    const std::int64_t span_hi = span_lo + (std::int64_t{1} << bits) - 1;
    if (entry != 0 && span_lo >= lo && span_hi <= hi) {
      out.push_back(Route{Prefix(Ipv4Address(address), entry >> kLenShift),
                          hop_of(entry)});
    }
    at = from_high ? span_lo - 1 : span_hi + 1;
  }
  if (from_high) std::reverse(out.begin() + start, out.end());
}

std::size_t FlatLookupTable::memory_bytes() const {
  std::size_t bytes = sizeof(chunks_) + sizeof(chunk_live_) +
                      l2_cap_ * sizeof(std::uint32_t*) + l2_live_.capacity();
  bytes += chunk_count_ * kChunkEntries * sizeof(std::uint32_t);
  bytes += l2_count_ * kL2Entries * sizeof(std::uint32_t);
  // The dictionary: hop array plus a node and a bucket per interned hop.
  bytes += hop_cap_ * sizeof(NextHop) +
           hop_ids_.bucket_count() * sizeof(void*) +
           hop_ids_.size() * 4 * sizeof(void*);
  return bytes;
}

}  // namespace clue::engine
