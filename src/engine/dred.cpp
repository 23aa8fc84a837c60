#include "engine/dred.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace clue::engine {

namespace {

constexpr std::size_t kLevel1Slots = std::size_t{1} << 16;
// doorkeeper_slot takes the hash's top 12 bits.
static_assert(DredStore::kDoorkeeperSlots == std::size_t{1} << 12);

}  // namespace

DredStore::DredStore(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("DredStore: capacity must be > 0");
  }
  if (capacity > kMaxCapacity) {
    throw std::invalid_argument("DredStore: capacity above kMaxCapacity");
  }
  entries_.resize(capacity);
  for (std::size_t i = 0; i + 1 < capacity; ++i) {
    entries_[i].next = static_cast<std::uint32_t>(i + 1);
  }
  free_entry_ = 0;
  const std::size_t slots = std::bit_ceil(2 * capacity);
  index_.resize(slots);
  index_mask_ = slots - 1;
  index_shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  level1_.assign(kLevel1Slots, 0);
  doorkeeper_.assign(kDoorkeeperSlots, 0);
}

void DredStore::insert(const Route& route) {
  const Prefix& prefix = route.prefix;
  if (const std::uint32_t id = find(prefix.bits(), prefix.length());
      id != kNil) {
    refresh(id, route.next_hop);
  } else {
    add(route);
  }
}

bool DredStore::offer(const Route& route) {
  const Prefix& prefix = route.prefix;
  if (const std::uint32_t id = find(prefix.bits(), prefix.length());
      id != kNil) {
    refresh(id, route.next_hop);
    return true;
  }
  std::uint32_t& slot = doorkeeper_[doorkeeper_slot(prefix)];
  const std::uint32_t tag = doorkeeper_tag(prefix);
  if (slot == tag) {
    slot = 0;
    add(route);
    return true;
  }
  slot = tag;
  ++stats_.declined;
  return false;
}

void DredStore::refresh(std::uint32_t id, NextHop next_hop) {
  // Already cached: an update, not a fresh insertion. The paint names
  // the entry, not the hop, so only the entry changes.
  entries_[id].route.next_hop = next_hop;
  touch(id);
  ++stats_.updates;
}

void DredStore::add(const Route& route) {
  const Prefix& prefix = route.prefix;
  if (size_ == capacity_) {
    remove(tail_);
    ++stats_.evictions;
  }
  const std::uint32_t id = free_entry_;
  free_entry_ = entries_[id].next;
  entries_[id].route = route;
  link_front(id);
  ++size_;

  const unsigned length = prefix.length();
  const Slot leaf = leaf_of(length, id);
  index_insert(prefix, leaf);
  if (length_count_[length]++ == 0) {
    lengths_present_ |= std::uint64_t{1} << length;
  }
  if (length > 16) {
    const std::size_t level2 = split(level1_, prefix.bits() >> 16);
    if (length > 24) split(pool_, level2 + level2_at(prefix.bits()));
  }
  // A slot's painted length field is length + 1, so "painted shorter
  // than the new prefix" is field <= length (an empty slot is field 0).
  paint(prefix, [&](Slot& slot) {
    if ((slot >> kLenShift) <= length) slot = leaf;
  });
  ++stats_.insertions;
}

bool DredStore::fix(const Route& route) {
  const std::uint32_t id = find(route.prefix.bits(), route.prefix.length());
  if (id == kNil) return false;
  entries_[id].route.next_hop = route.next_hop;
  ++stats_.updates;
  return true;
}

bool DredStore::erase(const Prefix& prefix) {
  const std::uint32_t id = find(prefix.bits(), prefix.length());
  if (id == kNil) return false;
  remove(id);
  ++stats_.erasures;
  return true;
}

std::vector<Prefix> DredStore::contents() const {
  std::vector<Prefix> out;
  out.reserve(size_);
  for (std::uint32_t id = head_; id != kNil; id = entries_[id].next) {
    out.push_back(entries_[id].route.prefix);
  }
  return out;
}

std::vector<Route> DredStore::routes() const {
  std::vector<Route> out;
  out.reserve(size_);
  for (std::uint32_t id = head_; id != kNil; id = entries_[id].next) {
    out.push_back(entries_[id].route);
  }
  return out;
}

std::vector<Prefix> DredStore::overlapping(const Prefix& prefix) const {
  std::vector<Prefix> out;
  // Ancestors (and the prefix itself): one exact probe per length present.
  const unsigned length = prefix.length();
  for (unsigned l = 0; l <= length; ++l) {
    if (!(lengths_present_ >> l & 1)) continue;
    const Prefix ancestor(prefix.address(), l);
    if (find(ancestor.bits(), l) != kNil) out.push_back(ancestor);
  }
  // Descendants: cached prefixes strictly inside `prefix`, in the order a
  // binary trie's in-order walk would give (Prefix's ordering).
  if (lengths_present_ >> (length + 1) != 0) {
    const std::size_t first = out.size();
    for (std::uint32_t id = head_; id != kNil; id = entries_[id].next) {
      const Prefix& cached = entries_[id].route.prefix;
      if (cached.length() > length && prefix.contains(cached)) {
        out.push_back(cached);
      }
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
  }
  return out;
}

bool DredStore::invariants_ok() const {
  if (size_ > capacity_) return false;
  // LRU list against the index and the per-length counts.
  std::array<std::uint32_t, Prefix::kMaxLength + 1> lengths{};
  std::size_t listed = 0;
  std::uint32_t prev = kNil;
  for (std::uint32_t id = head_; id != kNil; id = entries_[id].next) {
    if (++listed > size_ || entries_[id].prev != prev) return false;
    const Prefix& prefix = entries_[id].route.prefix;
    if (find(prefix.bits(), prefix.length()) != id) return false;
    ++lengths[prefix.length()];
    prev = id;
  }
  if (listed != size_ || tail_ != prev || lengths != length_count_) {
    return false;
  }
  for (unsigned l = 0; l <= Prefix::kMaxLength; ++l) {
    if (((lengths_present_ >> l) & 1) != (lengths[l] > 0 ? 1u : 0u)) {
      return false;
    }
  }
  std::size_t free_entries = 0;
  for (std::uint32_t id = free_entry_; id != kNil; id = entries_[id].next) {
    if (++free_entries > capacity_ - size_) return false;
  }
  if (free_entries != capacity_ - size_) return false;
  const auto indexed = std::count_if(index_.begin(), index_.end(),
                                     [](const IndexSlot& s) { return s.leaf; });
  if (static_cast<std::size_t>(indexed) != size_) return false;

  // Block pool: every prefix longer than /16 (/24) sits under a level-2
  // (level-3) block whose deeper count tallies exactly those prefixes;
  // every other block is on the free list.
  const std::size_t blocks = deeper_.size();
  std::vector<std::uint32_t> tally(blocks, 0);
  for (std::uint32_t id = head_; id != kNil; id = entries_[id].next) {
    const Prefix& prefix = entries_[id].route.prefix;
    if (prefix.length() <= 16) continue;
    const Slot level2 = level1_[prefix.bits() >> 16];
    if (!is_block(level2)) return false;
    ++tally[level2 & ~kBlockBit];
    if (prefix.length() <= 24) continue;
    const Slot level3 = pool_[block_base(level2) + level2_at(prefix.bits())];
    if (!is_block(level3)) return false;
    ++tally[level3 & ~kBlockBit];
  }
  std::vector<bool> is_free(blocks, false);
  std::size_t free_blocks = 0;
  for (std::uint32_t b = free_block_; b != kNil; b = pool_[b * kBlockSlots]) {
    if (b >= blocks || is_free[b] || tally[b] != 0) return false;
    is_free[b] = true;
    ++free_blocks;
  }
  for (std::size_t b = 0; b < blocks; ++b) {
    if (!is_free[b] && (tally[b] == 0 || tally[b] != deeper_[b])) {
      return false;
    }
  }
  return blocks - free_blocks == blocks_in_use_;
}

// ------------------------------------------------------------------ index

std::size_t DredStore::index_home(std::uint32_t bits, unsigned length) const {
  const std::uint64_t key = (std::uint64_t{bits} << 6) | length;
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                  index_shift_);
}

std::uint32_t DredStore::find(std::uint32_t bits, unsigned length) const {
  const Slot field = length + 1;
  for (std::size_t i = index_home(bits, length);; i = (i + 1) & index_mask_) {
    const IndexSlot& slot = index_[i];
    if (slot.leaf == 0) return kNil;
    if (slot.bits == bits && (slot.leaf >> kLenShift) == field) {
      return slot.leaf & kIdMask;
    }
  }
}

void DredStore::index_insert(const Prefix& prefix, Slot leaf) {
  std::size_t i = index_home(prefix.bits(), prefix.length());
  while (index_[i].leaf != 0) i = (i + 1) & index_mask_;
  index_[i] = IndexSlot{prefix.bits(), leaf};
}

void DredStore::index_erase(const Prefix& prefix) {
  const Slot field = prefix.length() + 1;
  std::size_t i = index_home(prefix.bits(), prefix.length());
  while (index_[i].bits != prefix.bits() ||
         (index_[i].leaf >> kLenShift) != field) {
    i = (i + 1) & index_mask_;
  }
  // Backward-shift delete: pull later members of the probe run into the
  // hole when the hole lies on their path from home, so lookups never
  // need tombstones.
  for (std::size_t j = (i + 1) & index_mask_; index_[j].leaf != 0;
       j = (j + 1) & index_mask_) {
    const std::size_t home =
        index_home(index_[j].bits, (index_[j].leaf >> kLenShift) - 1);
    if (((j - home) & index_mask_) >= ((j - i) & index_mask_)) {
      index_[i] = index_[j];
      i = j;
    }
  }
  index_[i] = IndexSlot{};
}

// ------------------------------------------------------------------ paint

DredStore::Slot DredStore::cover_of(const Prefix& prefix) const {
  std::uint64_t lengths =
      lengths_present_ & ((std::uint64_t{1} << prefix.length()) - 1);
  while (lengths != 0) {
    const unsigned l = 63 - static_cast<unsigned>(std::countl_zero(lengths));
    const Prefix cover(prefix.address(), l);
    if (const std::uint32_t id = find(cover.bits(), l); id != kNil) {
      return leaf_of(l, id);
    }
    lengths &= ~(std::uint64_t{1} << l);
  }
  return 0;
}

template <typename Paint>
void DredStore::paint(const Prefix& prefix, Paint&& apply) {
  const std::uint32_t bits = prefix.bits();
  const unsigned length = prefix.length();
  Slot* base = level1_.data();
  std::size_t first = bits >> 16;
  std::size_t count = std::size_t{1} << (16 - std::min(length, 16u));
  if (length > 16) {
    const std::size_t level2 = block_base(level1_[bits >> 16]);
    base = pool_.data() + level2;
    first = level2_at(bits);
    count = std::size_t{1} << (24 - std::min(length, 24u));
    if (length > 24) {
      base = pool_.data() + block_base(pool_[level2 + first]);
      first = bits & 0xFF;
      count = std::size_t{1} << (32 - length);
    }
  }
  for (std::size_t i = first; i < first + count; ++i) {
    paint_slot(base[i], apply);
  }
}

template <typename Paint>
void DredStore::paint_slot(Slot& slot, Paint& apply) {
  if (!is_block(slot)) {
    apply(slot);
    return;
  }
  const std::size_t base = block_base(slot);
  for (std::size_t i = 0; i < kBlockSlots; ++i) {
    paint_slot(pool_[base + i], apply);
  }
}

std::size_t DredStore::split(std::vector<Slot>& table, std::size_t at) {
  Slot slot = table[at];
  if (!is_block(slot)) {
    // A fresh block inherits the parent's answer in every slot.
    std::uint32_t b = free_block_;
    if (b != kNil) {
      free_block_ = pool_[b * kBlockSlots];
    } else {
      b = static_cast<std::uint32_t>(deeper_.size());
      deeper_.push_back(0);
      pool_.resize(pool_.size() + kBlockSlots);  // may move `table`'s data
    }
    std::fill_n(pool_.begin() + static_cast<std::ptrdiff_t>(b * kBlockSlots),
                kBlockSlots, slot);
    ++blocks_in_use_;
    slot = kBlockBit | b;
    table[at] = slot;
  }
  ++deeper_[slot & ~kBlockBit];
  return block_base(slot);
}

void DredStore::release(std::vector<Slot>& table, std::size_t at) {
  const Slot slot = table[at];
  const std::uint32_t b = slot & ~kBlockBit;
  if (--deeper_[b] != 0) return;
  // No longer prefix left inside: every slot now carries the same answer.
  table[at] = pool_[block_base(slot)];
  pool_[block_base(slot)] = free_block_;
  free_block_ = b;
  --blocks_in_use_;
}

void DredStore::remove(std::uint32_t id) {
  const Prefix prefix = entries_[id].route.prefix;
  const unsigned length = prefix.length();
  const Slot leaf = leaf_of(length, id);
  index_erase(prefix);
  if (--length_count_[length] == 0) {
    lengths_present_ &= ~(std::uint64_t{1} << length);
  }
  const Slot cover = cover_of(prefix);
  paint(prefix, [&](Slot& slot) {
    if (slot == leaf) slot = cover;
  });
  if (length > 16) {
    const std::size_t at = prefix.bits() >> 16;
    if (length > 24) {
      release(pool_, block_base(level1_[at]) + level2_at(prefix.bits()));
    }
    release(level1_, at);
  }
  unlink(id);
  entries_[id].next = free_entry_;
  free_entry_ = id;
  --size_;
}

}  // namespace clue::engine
