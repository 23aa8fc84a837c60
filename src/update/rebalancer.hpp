// Online boundary rebalancer — planning side.
//
// The paper's keystone (§III-A) is that the non-overlapping table splits
// into *exactly even* range partitions, but that evenness is only true at
// construction time: a realistic insert-heavy BGP churn lands most new
// prefixes in a few hot /8s, so chip occupancies drift apart until the
// hot chip exhausts its capacity. The rebalancer watches per-chip
// occupancy and, when skew (max/min) or headroom pressure crosses a
// watermark, plans migrations of boundary-adjacent entry runs between
// *neighboring* chips. Because the table is non-overlapping and each
// chip owns one contiguous address range, a migration is always "move
// the k highest entries of chip i to chip i+1" (or the mirror) plus one
// boundary move — every migrated entry is one write on the receiver and
// one erase on the donor (§IV-B's order-free chip).
//
// This header is the host-agnostic planning side: occupancies in, one
// executable MigrationStep out, and the pass loop that repeats plan and
// execute. update::ChipSet selects the run a step moves and stages it;
// only the execution protocols differ — runtime::LookupRuntime runs the
// epoch-ordered concurrent one, system::ClueSystem the serial one — so
// the two planes balance identically.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <vector>

namespace clue::update {

class ChipSet;

/// Rebalance when max/min chip occupancy exceeds this ratio (empty chips
/// count as occupancy 1 for the ratio).
inline constexpr double kSkewWatermark = 1.25;
/// With a known per-chip capacity, rebalance when any chip's
/// occupancy/capacity fraction exceeds this — the headroom-remaining
/// trigger that front-runs overflow.
inline constexpr double kHeadroomWatermark = 0.85;
/// Skew on tiny tables is noise; below this total occupancy the skew
/// trigger stays quiet (the headroom trigger still fires).
inline constexpr std::size_t kMinTotalEntries = 256;

/// One planned migration between two *adjacent* chips: move `count`
/// boundary-adjacent entries from `donor` to `receiver`
/// (receiver == donor ± 1) and shift the shared boundary accordingly.
struct MigrationStep {
  std::size_t donor = 0;
  std::size_t receiver = 0;
  std::size_t count = 0;
};

/// max/min occupancy ratio, with empty chips counted as 1 so the ratio
/// stays finite. 1.0 for perfectly even (or <2 chips).
double occupancy_skew(std::span<const std::size_t> occupancy);

/// The fraction of `capacity` (> 0) the fullest chip still has free: the
/// overflow early warning the headroom watermark fires on.
double headroom_remaining(std::span<const std::size_t> occupancy,
                          std::size_t capacity);

/// The per-chip entry counts an exactly even split of the same total
/// would give: partition::even_counts, so the targets match
/// partition::even_partition's layout, degenerate case included.
std::vector<std::size_t> even_targets(std::span<const std::size_t> occupancy);

/// True when either watermark is crossed: skew above kSkewWatermark (and
/// total >= kMinTotalEntries), or — when `chip_capacity` > 0 — any chip
/// above kHeadroomWatermark of capacity. Hosts with the rebalancer
/// switched off never ask.
bool should_rebalance(std::span<const std::size_t> occupancy,
                      std::size_t chip_capacity = 0);

/// The next executable migration toward the even targets, or nullopt
/// when balanced (or no executable step exists). Executable means the
/// donor actually has the entries: a donor giving entries *leftward*
/// always keeps at least one, so its boundary stays representable (the
/// top chip must keep owning the top of the address space). Iterating
/// plan_step + execute strictly decreases total imbalance, so a pass
/// converges.
std::optional<MigrationStep> plan_step(std::span<const std::size_t> occupancy);

/// What one rebalance pass did.
struct RebalancePass {
  std::size_t steps = 0;    ///< migrations executed
  std::size_t entries = 0;  ///< entries they moved
};

/// One rebalance pass, shared by both hosts: plan_step on the occupancy of
/// `chips`, execute it with `migrate` (which returns the entries it moved),
/// and repeat until balanced, until a migration moves nothing, or for at
/// most 64 steps (a safety valve: a pass normally converges in at most
/// chips-1 steps).
RebalancePass run_rebalance_pass(
    const ChipSet& chips,
    const std::function<std::size_t(const MigrationStep&)>& migrate);

}  // namespace clue::update
