// TtfTraceRing — a fixed-size ring of per-update TTF traces.
//
// The paper's TTF = TTF1 + TTF2 + TTF3 decomposition (§IV) is the unit
// of measurement for every update-path claim, so each apply() leaves one
// trace entry: its three stage spans, how many chip tables it
// republished, how many DRed sync messages it broadcast, and the
// job-ring depths observed when it started (whether the data plane was
// under pressure while the control plane cut in). The ring keeps the
// most recent `capacity` entries for post-mortem of stalls and
// tail-latency spikes.
//
// record() runs on the control (update) path — never the lookup hot
// path — so a mutex is the right tool: microseconds of update work dwarf
// a lock, and snapshot() from the metrics exporter stays trivially safe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace clue::obs {

/// One control-plane update's stage spans plus observed data-plane
/// pressure.
struct TtfTraceEntry {
  std::uint64_t seq = 0;  ///< update sequence number (1-based)
  double ttf1_ns = 0;     ///< control-plane software (trie diff) span
  /// Chip-table span: admission + flat-image patch + grace (the
  /// sub-spans below break it down).
  double ttf2_ns = 0;
  double ttf3_ns = 0;     ///< DRed sync sweep span (pushes, no ack)
  std::uint32_t chips_touched = 0;    ///< chip images patched
  /// DRed erase/fix messages sent: (workers − 1) per synced shape, since
  /// the storing chip's own DRed is skipped.
  std::uint32_t control_msgs = 0;
  std::uint32_t queue_depth_max = 0;  ///< deepest job ring at apply() entry
  double queue_depth_mean = 0;        ///< mean job-ring depth at apply() entry
  double rebalance_ns = 0;            ///< boundary-rebalance span (0 = none)
  std::uint32_t rebalance_steps = 0;  ///< migrations run by this update
  std::uint32_t entries_migrated = 0; ///< entries those migrations moved
  /// TTF2 sub-spans: admission (coalescing, planning against the
  /// chips' stored shapes and the capacity check, including any emergency
  /// rebalance it ran), and — 0 when no chip was patched — the affected
  /// chips' flat-image patches (stage + apply) and the epoch grace
  /// barrier that closes the commit (also 0 when no patch unlinked a
  /// block).
  double admit_ns = 0;
  double flat_ns = 0;
  double grace_ns = 0;
  /// Group commit: update messages this trace covers (1 = the sequential
  /// apply() path), and the diff-op stream before/after coalescing —
  /// ops_raw - ops_merged is the chip work the batch never paid for.
  std::uint32_t batch_size = 1;
  std::uint32_t ops_raw = 0;
  std::uint32_t ops_merged = 0;

  double total_ns() const { return ttf1_ns + ttf2_ns + ttf3_ns; }
};

/// Fixed-capacity ring of the most recent entries; capacity 0 disables
/// recording entirely.
class TtfTraceRing {
 public:
  explicit TtfTraceRing(std::size_t capacity);

  void record(const TtfTraceEntry& entry);

  /// The retained entries, oldest first.
  std::vector<TtfTraceEntry> snapshot() const;

  std::size_t capacity() const { return capacity_; }
  /// Entries ever recorded (>= snapshot().size() once the ring wraps).
  std::uint64_t recorded() const;

 private:
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<TtfTraceEntry> entries_;  // ring storage, wraps at capacity_
  std::size_t next_ = 0;                // slot the next entry lands in
  std::uint64_t recorded_ = 0;
};

}  // namespace clue::obs
