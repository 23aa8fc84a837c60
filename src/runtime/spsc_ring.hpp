// SpscRing — a bounded single-producer/single-consumer ring buffer.
//
// This is the paper's per-chip home FIFO made real: in the clock-stepped
// ParallelEngine the FIFO is a std::deque ticked by the simulation loop;
// in runtime::LookupRuntime it is this ring, crossed by two live threads
// (one submitter, one chip worker) without locks.
//
// Layout discipline:
//   * head_ (consumer cursor) and tail_ (producer cursor) live on their
//     own cache lines so the two sides never false-share;
//   * each side keeps a *cached* copy of the other side's cursor and
//     re-reads the shared atomic only when the cached value would make
//     the ring look full/empty — the common-case push/pop touches one
//     shared line, not two;
//   * release/acquire pairs order the slot write against the cursor
//     bump: the consumer's acquire load of tail_ makes the producer's
//     slot writes visible, and vice versa for recycled slots.
//
// The ring holds exactly the capacity it was built with. The cursors are
// free-running counters masked into a slot array sized to the next power
// of two, of which at most `capacity` slots are in use at once.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

namespace clue::runtime {

/// One side must be written by exactly one thread at a time; which
/// thread that is may change only across a synchronisation point (e.g.
/// thread join).
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(std::size_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity),
        mask_(std::bit_ceil(capacity_) - 1),
        slots_(mask_ + 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. False when the ring is full (caller decides whether
  /// to divert, retry, or drop — that policy lives outside the ring).
  bool try_push(T value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= capacity_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= capacity_) return false;
    }
    slots_[tail & mask_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Batched producer side: pushes up to `count` values from `values`,
  /// returning how many were accepted (0 when full). Partial pushes take
  /// the longest prefix that fits, so FIFO order is preserved; the
  /// cursor is bumped once per call, not per element.
  std::size_t try_push_n(T* values, std::size_t count) {
    if (count == 0) return 0;
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free = capacity_ - (tail - cached_head_);
    if (free < count) {
      cached_head_ = head_.load(std::memory_order_acquire);
      free = capacity_ - (tail - cached_head_);
      if (free == 0) return 0;
    }
    const std::size_t n = count < free ? count : free;
    for (std::size_t i = 0; i < n; ++i) {
      slots_[(tail + i) & mask_] = std::move(values[i]);
    }
    tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  /// Consumer side. False when the ring is empty.
  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (cached_tail_ == head) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (cached_tail_ == head) return false;
    }
    out = std::move(slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Batched consumer side: pops up to `max_count` values into `out`,
  /// returning how many were taken (0 when empty). One acquire load and
  /// one cursor bump cover the whole batch.
  std::size_t try_pop_n(T* out, std::size_t max_count) {
    if (max_count == 0) return 0;
    const std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = cached_tail_ - head;
    if (avail == 0) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      avail = cached_tail_ - head;
      if (avail == 0) return 0;
    }
    const std::size_t n = max_count < avail ? max_count : avail;
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = std::move(slots_[(head + i) & mask_]);
    }
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Occupancy estimate, callable from any thread. Exact only when both
  /// sides are quiescent; good enough for the idlest-queue heuristic.
  std::size_t size_approx() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

  bool empty_approx() const { return size_approx() == 0; }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::size_t mask_;
  std::vector<T> slots_;

  // Producer-owned line: its cursor plus its cached view of the consumer.
  alignas(64) std::atomic<std::size_t> tail_{0};
  std::size_t cached_head_ = 0;
  // Consumer-owned line: its cursor plus its cached view of the producer.
  alignas(64) std::atomic<std::size_t> head_{0};
  std::size_t cached_tail_ = 0;
};

}  // namespace clue::runtime
