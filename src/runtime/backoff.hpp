// How runtime threads wait: the one place that spins, yields or parks.
//
//   Backoff   bounded spin for a hand-off the caller started itself (an
//             ack, a ring with room, a grace period): 64 pause steps,
//             then yields.
//   Doorbell  one per thread that waits for *other* threads' work (chip
//             workers, the updater). Producers ring() after a push the
//             owner must act on; the owner parks on it with C++20
//             atomic::wait instead of sleeping.
//   idle_step the owner's idle policy: spend the Backoff budget (256
//             failed polls), then arm, poll once more, and park.
//
// Lost wake-ups: every write of a doorbell's state is a read-modify-
// write, so arm() and ring() are totally ordered on it. If a producer's
// ring() comes first, the owner's arm() reads its value and acquires the
// push before the final poll; if arm() comes first, ring() reads kArmed
// and notifies. Either way the owner cannot sleep past a push.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace clue::runtime {

class Backoff {
 public:
  /// One failed poll: a pause instruction for the first 64, then yields.
  void pause() {
    if (polls_ < kPauses) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#else
      std::this_thread::yield();
#endif
    } else {
      std::this_thread::yield();
    }
    if (polls_ < kParkAfter) ++polls_;
  }
  /// True once 256 polls failed in a row: a thread with a Doorbell parks.
  bool spent() const { return polls_ >= kParkAfter; }
  void reset() { polls_ = 0; }

 private:
  static constexpr unsigned kPauses = 64;
  static constexpr unsigned kParkAfter = 256;
  unsigned polls_ = 0;
};

/// On its own cache line: producers write it on every ring(), and it
/// must not invalidate the line of whatever it would otherwise share.
class alignas(64) Doorbell {
 public:
  /// Owner: announce the intent to park. Poll once more, then wait().
  void arm() { state_.exchange(kArmed, std::memory_order_acq_rel); }
  /// Owner: block until a ring() that followed the last arm().
  void wait() { state_.wait(kArmed, std::memory_order_acquire); }
  /// Producer, after a successful push: wakes the owner if it armed.
  void ring() {
    if (state_.exchange(kAwake, std::memory_order_acq_rel) == kArmed) {
      state_.notify_one();
    }
  }

 private:
  static constexpr std::uint32_t kAwake = 0;
  static constexpr std::uint32_t kArmed = 1;
  std::atomic<std::uint32_t> state_{kAwake};
};

/// One idle step of `bell`'s owner after a poll found nothing: pause
/// while the budget lasts; once it is spent, arm, re-check `ready` (the
/// poll, plus stop) and park until a producer rings. When the re-check
/// finds work the bell stays armed; the next ring() just disarms it.
template <typename Ready>
void idle_step(Backoff& backoff, Doorbell& bell, Ready&& ready) {
  if (!backoff.spent()) {
    backoff.pause();
    return;
  }
  bell.arm();
  if (!ready()) bell.wait();
}

}  // namespace clue::runtime
