#include "runtime/epoch.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/backoff.hpp"

namespace clue::runtime {

EpochDomain::EpochDomain(std::size_t reader_slots) : slots_(reader_slots) {
  if (reader_slots == 0) {
    throw std::invalid_argument("EpochDomain: need at least one reader slot");
  }
}

EpochDomain::~EpochDomain() {
  // By now every reader thread must have exited (slots idle); free the
  // backlog unconditionally rather than leak it.
  std::lock_guard<std::mutex> lock(writer_mutex_);
  for (const auto& r : retired_) r.deleter(r.object);
  reclaimed_.fetch_add(retired_.size(), std::memory_order_acq_rel);
  retired_.clear();
}

void EpochDomain::retire_erased(void* object, void (*deleter)(void*)) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  // Advance first: readers pinned from now on announce an epoch strictly
  // greater than the stamp, so they can only have loaded the *new*
  // pointer (the caller swapped it before retiring the old one).
  const std::uint64_t stamp =
      global_.fetch_add(1, std::memory_order_seq_cst) + 1;
  retired_.push_back(Retired{object, deleter, stamp - 1});
}

std::uint64_t EpochDomain::min_pinned() const {
  std::uint64_t lowest = kIdle;
  for (const auto& slot : slots_) {
    const std::uint64_t e = slot.epoch.load(std::memory_order_seq_cst);
    lowest = std::min(lowest, e);
  }
  return lowest;
}

std::size_t EpochDomain::reclaim() {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  if (retired_.empty()) return 0;
  const std::uint64_t floor = min_pinned();
  std::size_t freed = 0;
  auto keep = retired_.begin();
  for (auto it = retired_.begin(); it != retired_.end(); ++it) {
    // A reader pinned at epoch e can hold objects retired at stamp >= e;
    // stamps strictly below every pinned epoch are unreachable.
    if (it->epoch < floor) {
      it->deleter(it->object);
      ++freed;
    } else {
      *keep++ = *it;
    }
  }
  retired_.erase(keep, retired_.end());
  reclaimed_.fetch_add(freed, std::memory_order_acq_rel);
  return freed;
}

void EpochDomain::synchronize() {
  std::uint64_t target;
  {
    std::lock_guard<std::mutex> lock(writer_mutex_);
    target = global_.fetch_add(1, std::memory_order_seq_cst) + 1;
  }
  for (const auto& slot : slots_) {
    // A slot pinned below `target` was pinned before the advance and may
    // still be reading pre-advance state; wait it out. Slots re-pinned at
    // >= target can only see post-advance pointers, so they don't block.
    for (Backoff backoff;; backoff.pause()) {
      const std::uint64_t e = slot.epoch.load(std::memory_order_seq_cst);
      if (e == kIdle || e >= target) break;
    }
  }
}

std::size_t EpochDomain::pending() const {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  return retired_.size();
}

}  // namespace clue::runtime
