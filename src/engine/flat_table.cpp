#include "engine/flat_table.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace clue::engine {

namespace {

std::unique_ptr<std::uint32_t[]> zeroed_block(std::size_t entries) {
  // Value-initialised: every slot starts as kNoRoute (0).
  return std::unique_ptr<std::uint32_t[]>(new std::uint32_t[entries]());
}

}  // namespace

FlatLookupTable::FlatLookupTable(const trie::BinaryTrie& table) {
  if (!table.is_disjoint()) {
    throw std::invalid_argument(
        "FlatLookupTable: route set must be non-overlapping");
  }
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
      l2_count_(prev.l2_count_) {
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
  for (std::uint32_t* block : replaced_.blocks) delete[] block;
  delete replaced_.dict;
}

template <typename PaintAll>
void FlatLookupTable::build(const FlatLookupTable* prev,
                            PaintAll&& paint_all) {
  Builder b{prev, {}};
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
  handover.blocks = std::move(b.replaced);
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
    chunk = new std::uint32_t[kChunkEntries]();
    ++chunk_count_;
  } else if (!owns_chunk(slot_chunk, b.prev)) {
    // Copy-on-write: every entry is overwritten, so skip the zero-fill.
    b.replaced.push_back(chunk);
    auto* copy = new std::uint32_t[kChunkEntries];
    std::memcpy(copy, chunk, kChunkEntries * sizeof(std::uint32_t));
    chunk = copy;
  }
  return chunk;
}

void FlatLookupTable::release_l2(std::uint32_t entry, Builder& b) {
  const std::uint32_t id = entry & ~kL2Flag;
  l2_free_.push_back(id);
  // A block this build made is freed now; a predecessor's stays with it.
  if (owns_l2(id, b.prev)) {
    delete[] l2_[id];
  } else {
    b.replaced.push_back(l2_[id]);
  }
  l2_[id] = nullptr;
  --l2_count_;
}

std::uint32_t FlatLookupTable::alloc_l2(
    std::unique_ptr<std::uint32_t[]> block) {
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
  l2_[id] = block.release();
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
        if (owns_chunk(chunk, b.prev)) {
          delete[] chunks_[chunk];
        } else {
          b.replaced.push_back(chunks_[chunk]);
        }
        chunks_[chunk] = nullptr;
        --chunk_count_;
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
    auto fresh = zeroed_block(kL2Entries);
    block = fresh.get();
    if (entry != 0) std::fill(block, block + kL2Entries, entry);
    entry = kL2Flag | alloc_l2(std::move(fresh));
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
  auto fresh = zeroed_block(kL2Entries);
  std::uint32_t* block = fresh.get();
  for (const auto& route : inside) {
    const std::uint32_t value = encode(route, b);
    const std::uint32_t lo = route.prefix.range_low().value() & kL2Mask;
    const std::uint32_t hi = route.prefix.range_high().value() & kL2Mask;
    std::fill(block + lo, block + hi + 1, value);
  }
  // Uniform blocks (e.g. after deletes merged the survivors) collapse
  // back to a direct entry — keeps level-2 memory from ratcheting up.
  // Shape survives the collapse: a uniform block is tiled by same-length
  // same-hop routes, so Prefix(address, length) still names each one.
  const bool uniform =
      std::all_of(block, block + kL2Entries,
                  [&](std::uint32_t v) { return v == block[0]; });
  if (uniform) {
    fill_direct(slot, slot, block[0], b);
    return;
  }
  std::uint32_t* p = writable_chunk(slot >> kChunkBits, b);
  std::uint32_t& entry = p[slot & kChunkMask];
  if (entry & kL2Flag) release_l2(entry, b);
  entry = kL2Flag | alloc_l2(std::move(fresh));
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
