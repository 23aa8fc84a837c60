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

FlatLookupTable::FlatLookupTable(std::span<const Route> routes)
    : pool_(std::make_shared<BlockPool>()) {
  build(nullptr, {}, routes);
}

FlatLookupTable::FlatLookupTable(const trie::BinaryTrie& table)
    : FlatLookupTable(std::span<const Route>(table.routes())) {}

FlatLookupTable::FlatLookupTable(const FlatLookupTable& prev,
                                 std::span<const Prefix> erases,
                                 std::span<const Route> writes)
    : chunks_(prev.chunks_),
      l2_(prev.l2_),
      l2_free_(prev.l2_free_),
      dict_(prev.dict_),
      chunk_count_(prev.chunk_count_),
      l2_count_(prev.l2_count_),
      route_count_(prev.route_count_),
      pool_(prev.pool_) {
  if (prev.replaced_.has_successor) {
    throw std::logic_error(
        "FlatLookupTable: predecessor already has a successor");
  }
  build(&prev, erases, writes);
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

void FlatLookupTable::build(const FlatLookupTable* prev,
                            std::span<const Prefix> erases,
                            std::span<const Route> writes) {
  Builder b{prev, {}, {}};
  try {
    if (!dict_) dict_ = new HopDict();
    for (const Prefix& prefix : erases) paint(prefix, 0, b);
    for (const Route& route : writes) {
      paint(route.prefix, encode(route, b), b);
    }
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

std::uint32_t* FlatLookupTable::writable_block(std::uint32_t slot,
                                               Builder& b) {
  const std::uint32_t entry = slot_entry(slot);
  if (entry & kL2Flag) {
    const std::uint32_t id = entry & ~kL2Flag;
    if (!owns_l2(id, b.prev)) {
      // The id stays; only this image's pointer moves to the copy, so the
      // level-1 chunk that names the id is still shared.
      b.replaced_l2.push_back(l2_[id]);
      std::uint32_t* copy = pool_->take(pool_->l2_);
      std::memcpy(copy, l2_[id], kL2Entries * sizeof(std::uint32_t));
      l2_[id] = copy;
    }
    return l2_[id];
  }
  // A direct entry covers the whole /24: no route, or the tile of a
  // collapsed block, which stands for 2^(len-24) same-hop routes.
  const std::uint32_t id = alloc_l2();
  std::fill_n(l2_[id], kL2Entries, entry);
  writable_chunk(slot >> kChunkBits, b)[slot & kChunkMask] = kL2Flag | id;
  return l2_[id];
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

void FlatLookupTable::drop_if_empty(std::size_t slot_chunk, Builder& b) {
  const std::uint32_t* chunk = chunks_[slot_chunk];
  if (std::all_of(chunk, chunk + kChunkEntries,
                  [](std::uint32_t v) { return v == 0; })) {
    drop_chunk(slot_chunk, b);
  }
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

bool FlatLookupTable::fill_direct(std::uint32_t lo, std::uint32_t hi,
                                  std::uint32_t entry, Builder& b) {
  for (std::uint64_t slot = lo; slot <= hi; slot = (slot | kChunkMask) + 1) {
    const std::size_t chunk = slot >> kChunkBits;
    const std::uint32_t in_lo = slot & kChunkMask;
    const std::uint32_t in_hi = std::min<std::uint64_t>(hi, slot | kChunkMask) &
                                kChunkMask;
    if (entry == 0 && in_lo == 0 && in_hi == kChunkMask) {
      // A whole-chunk clear drops the chunk back to null, so cleared
      // address space costs nothing again.
      if (chunks_[chunk]) drop_chunk(chunk, b);
    } else if (entry != 0 || chunks_[chunk]) {
      std::uint32_t* p = writable_chunk(chunk, b);
      // A write may only land on no-route slots or on its own prefix
      // (non-overlap: a same-length entry in its range is that prefix).
      const auto free = [shape = entry >> kLenShift](std::uint32_t v) {
        return v == 0 || v >> kLenShift == shape;
      };
      if (entry != 0 && !std::all_of(p + in_lo, p + in_hi + 1, free)) {
        return false;
      }
      std::fill(p + in_lo, p + in_hi + 1, entry);
      if (entry == 0) drop_if_empty(chunk, b);
    }
  }
  return true;
}

void FlatLookupTable::paint(const Prefix& prefix, std::uint32_t value,
                            Builder& b) {
  const unsigned length = prefix.length();
  const std::uint32_t lo = prefix.range_low().value();
  const std::uint32_t hi = prefix.range_high().value();
  const std::uint32_t slot = lo >> kL2Bits;
  const std::uint32_t entry = slot_entry(slot);
  const std::uint32_t first =
      (entry & kL2Flag) ? l2_[entry & ~kL2Flag][lo & kL2Mask] : entry;
  // Non-overlap: `prefix` is stored iff the entry at its first address
  // has its length, and then that entry fills its whole range. An erase
  // must find it; a write must find it or no route anywhere in its range
  // (checked as it paints).
  const bool stored = first != 0 && (first >> kLenShift) == length;
  bool fits = stored || value != 0;
  if (fits && length <= kStride) {
    fits = fill_direct(slot, hi >> kL2Bits, value, b);
  } else if (fits) {
    std::uint32_t* block = writable_block(slot, b);
    std::uint32_t* dst = block + (lo & kL2Mask);
    std::uint32_t* end = dst + (hi - lo) + 1;
    fits = stored ||
           std::all_of(dst, end, [](std::uint32_t v) { return v == 0; });
    std::fill(dst, end, value);
    // A uniform block (after deletes merged the survivors, or once a
    // same-hop run tiles the slot) collapses back to a direct entry —
    // keeps level-2 memory from ratcheting up. Shape survives: a uniform
    // block is tiled by same-length same-hop routes, so
    // Prefix(address, length) still names each one.
    const std::uint32_t uniform = block[0];
    if (std::all_of(block, block + kL2Entries,
                    [uniform](std::uint32_t v) { return v == uniform; })) {
      release_l2(slot_entry(slot), b);
      writable_chunk(slot >> kChunkBits, b)[slot & kChunkMask] = uniform;
      if (uniform == 0) drop_if_empty(slot >> kChunkBits, b);
    }
  }
  if (!fits) {
    throw std::invalid_argument(
        "FlatLookupTable: " + std::string(value ? "write " : "erase ") +
        prefix.to_string() +
        (value ? " overlaps a stored route" : " names no stored route"));
  }
  route_count_ = route_count_ - (value == 0) + (value != 0 && !stored);
}

std::vector<FlatLookupTable::Route> FlatLookupTable::stored_within(
    const Prefix& region, std::size_t limit, bool from_high) const {
  std::vector<Route> out;
  const std::int64_t lo = region.range_low().value();
  const std::int64_t hi = region.range_high().value();
  std::int64_t at = from_high ? hi : lo;
  while (out.size() < limit && at >= lo && at <= hi) {
    const auto address = static_cast<std::uint32_t>(at);
    const std::uint32_t slot = address >> kL2Bits;
    const std::uint32_t* chunk = chunks_[slot >> kChunkBits];
    std::uint32_t entry = chunk ? chunk[slot & kChunkMask] : 0;
    // Steps over one span at a time; `bits` is its log2: a null chunk,
    // an empty slot, one empty level-2 address, or the stored route here.
    unsigned bits = chunk ? kL2Bits : kL2Bits + kChunkBits;
    if (entry & kL2Flag) {
      entry = l2_[entry & ~kL2Flag][address & kL2Mask];
      bits = 0;
    }
    if (entry != 0) bits = 32 - (entry >> kLenShift);
    const std::int64_t span_lo = (at >> bits) << bits;
    const std::int64_t span_hi = span_lo + (std::int64_t{1} << bits) - 1;
    if (entry != 0 && span_lo >= lo && span_hi <= hi) {
      out.push_back(Route{Prefix(Ipv4Address(address), entry >> kLenShift),
                          hops_[entry & kIdMask]});
    }
    at = from_high ? span_lo - 1 : span_hi + 1;
  }
  if (from_high) std::reverse(out.begin(), out.end());
  return out;
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
