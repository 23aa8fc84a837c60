// TcamChip — a behavioural simulator of a ternary CAM routing chip.
//
// The paper's testbed uses a Cypress CYNSE70256 (256K entries, 41.5 MHz,
// ≈24 ns per operation). We model what matters to every number the paper
// reports: slot-addressed storage, single-cycle parallel match with a
// priority encoder (lowest matching slot wins), per-operation counters
// (searches / writes / invalidates / moved entries) and a power proxy
// (valid entries activated per search).
//
// Matching is answered from an internal trie index in O(32) rather than
// by scanning every slot; `search_linear` performs the honest O(capacity)
// scan and exists so tests can prove the index tells the truth.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "netbase/prefix.hpp"
#include "trie/binary_trie.hpp"

namespace clue::tcam {

using netbase::Ipv4Address;
using netbase::NextHop;
using netbase::Prefix;
using netbase::Route;

/// Timing constants of the simulated part (CYNSE70256 at 41.5 MHz).
struct TcamTiming {
  /// Cost of one search, one entry write, or one entry move.
  static constexpr double kAccessNs = 24.0;
};

struct TcamEntry {
  Prefix prefix;
  NextHop next_hop = netbase::kNoRoute;

  friend bool operator==(const TcamEntry&, const TcamEntry&) = default;
};

class TcamChip {
 public:
  struct SearchResult {
    bool hit = false;
    std::size_t slot = 0;       ///< winning slot (priority-encoded)
    NextHop next_hop = netbase::kNoRoute;
    std::size_t match_count = 0;  ///< how many slots raised a match line
  };

  struct Stats {
    std::uint64_t searches = 0;
    std::uint64_t writes = 0;
    std::uint64_t invalidates = 0;
    std::uint64_t moves = 0;  ///< entry relocations (the "shifts")
    /// Sum over searches of valid entries at search time — the energy
    /// proxy used by the power-model benches.
    std::uint64_t activated_entries = 0;
  };

  explicit TcamChip(std::size_t capacity);

  std::size_t capacity() const { return slots_.size(); }
  std::size_t occupied() const { return occupied_; }
  bool full() const { return occupied_ == slots_.size(); }

  /// The entry stored at `slot`, if valid. Precondition: slot < capacity.
  const std::optional<TcamEntry>& read(std::size_t slot) const;

  /// Writes `entry` into `slot`, overwriting anything there.
  /// Precondition: slot < capacity; no *other* valid slot already holds
  /// the same prefix (a TCAM would return an ambiguous match).
  void write(std::size_t slot, const TcamEntry& entry);

  /// Invalidates `slot`; no-op on an already-empty slot.
  void invalidate(std::size_t slot);

  /// Relocates the entry in `from` to `to` (one shift). Precondition:
  /// `from` is valid and `to` is empty or equal to `from`.
  void move(std::size_t from, std::size_t to);

  /// Parallel match: all valid slots compare simultaneously; the priority
  /// encoder reports the lowest matching slot.
  SearchResult search(Ipv4Address address);

  /// Reference implementation scanning every slot. For verification.
  SearchResult search_linear(Ipv4Address address) const;

  /// Slot currently holding `prefix`, if any.
  std::optional<std::size_t> slot_of(const Prefix& prefix) const;

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

  /// All valid entries with their slots, ascending by slot.
  std::vector<std::pair<std::size_t, TcamEntry>> entries() const;

 private:
  // Memoised search() answer, valid only while `version` matches the
  // chip's. TCAM entries may overlap (the priority encoder arbitrates),
  // so unlike the engine's flat tables no address-indexed structure can
  // be rebuilt incrementally here — but the full SearchResult for a
  // repeated address is stable between writes, and bench loops replay
  // addresses heavily. Counters are bumped before the cache is
  // consulted, so a cached search is indistinguishable in the stats.
  struct SearchSlot {
    Ipv4Address address{0};
    SearchResult result{};
    std::uint64_t version = 0;  // 0 = never valid
  };

  std::vector<std::optional<TcamEntry>> slots_;
  // Index: prefix -> set of slots holding it (normally a single slot; the
  // transient second copy exists only mid-`move`). The trie answers LPM.
  std::unordered_map<Prefix, std::size_t> slot_index_;
  trie::BinaryTrie match_index_;
  std::size_t occupied_ = 0;
  Stats stats_;
  std::vector<SearchSlot> search_cache_;
  std::uint64_t version_ = 1;  // bumped by every mutating operation
};

}  // namespace clue::tcam
