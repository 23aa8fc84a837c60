// EpochDomain — epoch-based reclamation for read-mostly snapshots.
//
// The runtime patches each chip's flat image in place and swaps its
// indexing logic behind a single atomic pointer (RCU discipline: readers
// never block; the writer unlinks, then retires what it unlinked — a
// patch's retire bundle, or the old indexing). This domain answers the
// one question that makes the unlink safe: *when may the retired object
// be freed?*
//
// Scheme (classic epoch-based reclamation):
//   * a global epoch counter only the writer advances;
//   * one cache-line-aligned slot per reader; a reader entering a
//     critical section pins the current global epoch into its slot
//     (seq_cst, so the announcement and the subsequent pointer load
//     cannot be reordered past a writer's scan), and stores kIdle on
//     exit;
//   * retire(p) stamps p with the epoch *after* an advance, so any
//     reader that could still hold p is pinned at a strictly smaller
//     epoch;
//   * reclaim() frees every retired object whose stamp is <= every
//     pinned epoch (idle slots don't constrain).
//
// The writer side (retire/reclaim/advance) is serialized by a mutex so
// multiple control-plane threads stay safe; the reader side is entirely
// lock-free and writes only its own slot.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace clue::runtime {

class EpochDomain {
 public:
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

  explicit EpochDomain(std::size_t reader_slots);
  ~EpochDomain();

  EpochDomain(const EpochDomain&) = delete;
  EpochDomain& operator=(const EpochDomain&) = delete;

  /// RAII pin of one reader slot. A slot belongs to exactly one thread
  /// at a time; nesting on the same slot is not supported.
  class Guard {
   public:
    Guard(EpochDomain& domain, std::size_t slot) : domain_(domain), slot_(slot) {
      domain_.pin(slot_);
    }
    ~Guard() { domain_.unpin(slot_); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    EpochDomain& domain_;
    std::size_t slot_;
  };

  void pin(std::size_t slot) {
    // seq_cst: the announcement must be globally ordered before this
    // thread's subsequent protected-pointer load, or a concurrent
    // reclaim scan could miss us and free what we are about to read.
    slots_[slot].epoch.store(global_.load(std::memory_order_acquire),
                             std::memory_order_seq_cst);
  }
  void unpin(std::size_t slot) {
    slots_[slot].epoch.store(kIdle, std::memory_order_release);
  }

  /// Hands `object` to the domain for deferred deletion. Advances the
  /// global epoch so the stamp strictly exceeds every reader that could
  /// still hold the object.
  template <typename T>
  void retire(T* object) {
    retire_erased(object, [](void* p) { delete static_cast<T*>(p); });
  }

  /// Frees every retired object no pinned reader can still see.
  /// Returns how many were freed this call.
  std::size_t reclaim();

  /// Grace-period barrier: advances the global epoch and spins until
  /// every reader slot is idle or pinned at the new epoch (or later).
  /// On return, no reader critical section that began before the call
  /// is still running — anything the caller unpublished beforehand is
  /// invisible. Writer-side only; never call from a reader thread that
  /// holds a pin on this domain (it would wait on itself).
  void synchronize();

  /// Total objects freed so far — the destruction counter the
  /// reclamation tests assert on.
  std::uint64_t reclaimed() const {
    return reclaimed_.load(std::memory_order_acquire);
  }
  /// Retired but not yet freed.
  std::size_t pending() const;


 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> epoch{kIdle};
  };
  struct Retired {
    void* object;
    void (*deleter)(void*);
    std::uint64_t epoch;
  };

  void retire_erased(void* object, void (*deleter)(void*));
  /// Smallest pinned epoch across all slots (kIdle when none pinned).
  std::uint64_t min_pinned() const;

  std::atomic<std::uint64_t> global_{1};
  std::vector<Slot> slots_;

  mutable std::mutex writer_mutex_;
  std::vector<Retired> retired_;
  std::atomic<std::uint64_t> reclaimed_{0};
};

}  // namespace clue::runtime
