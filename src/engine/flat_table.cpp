#include "engine/flat_table.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace clue::engine {

namespace {

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

}  // namespace

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

FlatLookupTable::FlatLookupTable(const trie::BinaryTrie& table) {
  if (!table.is_disjoint()) {
    throw std::invalid_argument(
        "FlatLookupTable: route set must be non-overlapping");
  }
  pool_ = std::make_shared<BlockPool>();
  build(nullptr, [&](Builder& b) {
    dict_ = new HopDict();
    repaint(table, Prefix{}, b);  // /0 = paint the whole space
  });
}

FlatLookupTable::FlatLookupTable(const FlatLookupTable& prev,
                                 const trie::BinaryTrie& table,
                                 std::span<const Prefix> dirty)
    : chunks_(prev.chunks_),
      l2_(prev.l2_),
      l2_free_(prev.l2_free_),
      dict_(prev.dict_),
      chunk_count_(prev.chunk_count_),
      l2_count_(prev.l2_count_),
      pool_(prev.pool_) {
  if (prev.replaced_.has_successor) {
    throw std::logic_error(
        "FlatLookupTable: predecessor already has a successor");
  }
  build(&prev, [&](Builder& b) {
    for (const Prefix& prefix : dirty) repaint(table, prefix, b);
  });
}

FlatLookupTable::~FlatLookupTable() {
  if (!replaced_.has_successor) {
    free_unshared(nullptr);
    return;
  }
  pool_->park(pool_->chunks_, replaced_.chunks);
  pool_->park(pool_->l2_, replaced_.l2);
  delete replaced_.dict;
}

template <typename PaintAll>
void FlatLookupTable::build(const FlatLookupTable* prev,
                            PaintAll&& paint_all) {
  Builder b{prev, {}, {}};
  try {
    paint_all(b);
    finish(b);
  } catch (...) {
    free_unshared(prev);
    throw;
  }
}

void FlatLookupTable::free_unshared(const FlatLookupTable* prev) noexcept {
  for (std::size_t i = 0; i < kChunkCount; ++i) {
    if (owns_chunk(i, prev)) delete[] chunks_[i];
  }
  for (std::uint32_t id = 0; id < l2_.size(); ++id) {
    if (owns_l2(id, prev)) delete[] l2_[id];
  }
  if (owns_dict(prev)) delete dict_;
}

void FlatLookupTable::finish(Builder& b) noexcept {
  hops_ = dict_->hops.data();
  if (!b.prev) return;
  Replaced& handover = b.prev->replaced_;
  handover.chunks = std::move(b.replaced_chunks);
  handover.l2 = std::move(b.replaced_l2);
  if (owns_dict(b.prev)) handover.dict = b.prev->dict_;
  handover.has_successor = true;
}

std::uint32_t FlatLookupTable::encode(const Route& route, Builder& b) {
  const std::uint32_t hop = netbase::to_index(route.next_hop);
  std::uint32_t id = 0;
  if (const auto it = dict_->ids.find(hop); it != dict_->ids.end()) {
    id = it->second;
  } else {
    // First sight of this hop: append to a private copy of the shared
    // dictionary (earlier snapshots keep reading theirs unchanged).
    if (dict_->hops.size() > kIdMask) {
      throw std::length_error("FlatLookupTable: next-hop id overflow");
    }
    if (!owns_dict(b.prev)) dict_ = new HopDict(*dict_);
    id = static_cast<std::uint32_t>(dict_->hops.size());
    dict_->hops.push_back(route.next_hop);
    dict_->ids.emplace(hop, id);
  }
  return (route.prefix.length() << kLenShift) | id;
}

std::uint32_t* FlatLookupTable::writable_chunk(std::size_t slot_chunk,
                                               Builder& b) {
  std::uint32_t*& chunk = chunks_[slot_chunk];
  if (!chunk) {
    chunk = pool_->take(pool_->chunks_);
    std::fill_n(chunk, kChunkEntries, 0u);
    ++chunk_count_;
  } else if (!owns_chunk(slot_chunk, b.prev)) {
    // Copy-on-write: every entry is overwritten, so skip the zero-fill.
    b.replaced_chunks.push_back(chunk);
    std::uint32_t* copy = pool_->take(pool_->chunks_);
    std::memcpy(copy, chunk, kChunkEntries * sizeof(std::uint32_t));
    chunk = copy;
  }
  return chunk;
}

void FlatLookupTable::drop_chunk(std::size_t slot_chunk, Builder& b) {
  std::uint32_t*& chunk = chunks_[slot_chunk];
  if (owns_chunk(slot_chunk, b.prev)) {
    pool_->park(pool_->chunks_, {&chunk, 1});
  } else {
    b.replaced_chunks.push_back(chunk);
  }
  chunk = nullptr;
  --chunk_count_;
}

void FlatLookupTable::release_l2(std::uint32_t entry, Builder& b) {
  const std::uint32_t id = entry & ~kL2Flag;
  l2_free_.push_back(id);
  // A block this build made is parked now; a predecessor's stays with it.
  if (owns_l2(id, b.prev)) {
    pool_->park(pool_->l2_, {&l2_[id], 1});
  } else {
    b.replaced_l2.push_back(l2_[id]);
  }
  l2_[id] = nullptr;
  --l2_count_;
}

std::uint32_t FlatLookupTable::alloc_l2() {
  std::uint32_t id = 0;
  if (!l2_free_.empty()) {
    id = l2_free_.back();
    l2_free_.pop_back();
  } else {
    if (l2_.size() >= kL2Flag) {
      throw std::length_error("FlatLookupTable: level-2 block id overflow");
    }
    id = static_cast<std::uint32_t>(l2_.size());
    l2_.push_back(nullptr);
  }
  l2_[id] = pool_->take(pool_->l2_);
  ++l2_count_;
  return id;
}

void FlatLookupTable::fill_direct(std::uint32_t lo, std::uint32_t hi,
                                  std::uint32_t entry, Builder& b) {
  std::uint32_t slot = lo;
  while (slot <= hi) {
    const std::size_t chunk = slot >> kChunkBits;
    const std::uint32_t in_lo = slot & kChunkMask;
    const std::uint32_t chunk_last =
        static_cast<std::uint32_t>((chunk << kChunkBits) | kChunkMask);
    const std::uint32_t in_hi = std::min(hi, chunk_last) & kChunkMask;
    if (!chunks_[chunk]) {
      if (entry != 0) {
        std::uint32_t* p = writable_chunk(chunk, b);
        std::fill(p + in_lo, p + in_hi + 1, entry);
      }
      // Null chunk overwritten with no-route: already there.
    } else {
      // Free any level-2 blocks this fill overwrites (readable through
      // the shared pointer even before copy-on-write).
      const std::uint32_t* read = chunks_[chunk];
      for (std::uint32_t i = in_lo; i <= in_hi; ++i) {
        if (read[i] & kL2Flag) release_l2(read[i], b);
      }
      // A chunk that ends up all-zero drops back to the null
      // representation, so cleared address space costs nothing again.
      const bool whole = in_lo == 0 && in_hi == kChunkMask;
      const bool rest_zero =
          whole ||
          (entry == 0 &&
           std::all_of(read, read + in_lo,
                       [](std::uint32_t v) { return v == 0; }) &&
           std::all_of(read + in_hi + 1, read + kChunkEntries,
                       [](std::uint32_t v) { return v == 0; }));
      if (entry == 0 && rest_zero) {
        drop_chunk(chunk, b);
      } else {
        std::uint32_t* p = writable_chunk(chunk, b);
        std::fill(p + in_lo, p + in_hi + 1, entry);
      }
    }
    if (chunk_last == hi || chunk_last >= (std::uint32_t{1} << kStride) - 1) {
      break;
    }
    slot = chunk_last + 1;
  }
}

void FlatLookupTable::paint(const Route& route, Builder& b) {
  const std::uint32_t value = encode(route, b);
  const std::uint32_t lo = route.prefix.range_low().value();
  const std::uint32_t hi = route.prefix.range_high().value();
  if (route.prefix.length() <= kStride) {
    fill_direct(lo >> kL2Bits, hi >> kL2Bits, value, b);
    return;
  }
  // Longer than the stride: the route lives inside one level-1 slot.
  const std::uint32_t slot = lo >> kL2Bits;
  std::uint32_t* p = writable_chunk(slot >> kChunkBits, b);
  std::uint32_t& entry = p[slot & kChunkMask];
  std::uint32_t* block = nullptr;
  if (entry & kL2Flag) {
    // Only blocks created by this repaint pass can be seen here (the
    // region was cleared first), so in-place mutation is safe.
    block = l2_[entry & ~kL2Flag];
  } else {
    const std::uint32_t id = alloc_l2();
    block = l2_[id];
    std::fill_n(block, kL2Entries, entry);
    entry = kL2Flag | id;
  }
  std::fill(block + (lo & kL2Mask), block + (hi & kL2Mask) + 1, value);
}

void FlatLookupTable::recompute_slot(const trie::BinaryTrie& table,
                                     std::uint32_t slot, Builder& b) {
  const Prefix block_prefix(Ipv4Address(slot << kL2Bits), kStride);
  // A route no longer than the stride that matches the block's first
  // address covers the whole block (non-overlap: nothing else can).
  const auto cover = table.lookup_route(block_prefix.range_low());
  if (cover && cover->prefix.length() <= kStride) {
    fill_direct(slot, slot, encode(*cover, b), b);
    return;
  }
  const auto inside = table.routes_within(block_prefix);
  if (inside.empty()) {
    fill_direct(slot, slot, 0, b);
    return;
  }
  // Painted on the stack first: a uniform result never takes a block.
  std::array<std::uint32_t, kL2Entries> block{};
  for (const auto& route : inside) {
    const std::uint32_t value = encode(route, b);
    const std::uint32_t lo = route.prefix.range_low().value() & kL2Mask;
    const std::uint32_t hi = route.prefix.range_high().value() & kL2Mask;
    std::fill(block.begin() + lo, block.begin() + hi + 1, value);
  }
  // Uniform blocks (e.g. after deletes merged the survivors) collapse
  // back to a direct entry — keeps level-2 memory from ratcheting up.
  // Shape survives the collapse: a uniform block is tiled by same-length
  // same-hop routes, so Prefix(address, length) still names each one.
  const bool uniform =
      std::all_of(block.begin(), block.end(),
                  [&](std::uint32_t v) { return v == block[0]; });
  if (uniform) {
    fill_direct(slot, slot, block[0], b);
    return;
  }
  std::uint32_t* p = writable_chunk(slot >> kChunkBits, b);
  std::uint32_t& entry = p[slot & kChunkMask];
  if (entry & kL2Flag) release_l2(entry, b);
  const std::uint32_t id = alloc_l2();
  std::memcpy(l2_[id], block.data(), sizeof(block));
  entry = kL2Flag | id;
}

void FlatLookupTable::repaint(const trie::BinaryTrie& table,
                              const Prefix& dirty, Builder& b) {
  if (dirty.length() > kStride) {
    recompute_slot(table, dirty.range_low().value() >> kL2Bits, b);
    return;
  }
  const std::uint32_t lo = dirty.range_low().value() >> kL2Bits;
  const std::uint32_t hi = dirty.range_high().value() >> kL2Bits;
  // A stored route at or above the dirty prefix covers the whole region
  // (non-overlap again): paint it directly and stop.
  const auto cover = table.lookup_route(dirty.range_low());
  if (cover && cover->prefix.length() <= dirty.length()) {
    fill_direct(lo, hi, encode(*cover, b), b);
    return;
  }
  fill_direct(lo, hi, 0, b);
  for (const auto& route : table.routes_within(dirty)) paint(route, b);
}

std::size_t FlatLookupTable::memory_bytes() const {
  std::size_t bytes = chunks_.size() * sizeof(std::uint32_t*) +
                      l2_.capacity() * sizeof(std::uint32_t*) +
                      l2_free_.capacity() * sizeof(std::uint32_t);
  bytes += chunk_count_ * kChunkEntries * sizeof(std::uint32_t);
  bytes += l2_count_ * kL2Entries * sizeof(std::uint32_t);
  // The dictionary: hop array plus a node and a bucket per interned hop.
  bytes += dict_->hops.capacity() * sizeof(NextHop) +
           dict_->ids.bucket_count() * sizeof(void*) +
           dict_->ids.size() * 4 * sizeof(void*);
  return bytes;
}

}  // namespace clue::engine
