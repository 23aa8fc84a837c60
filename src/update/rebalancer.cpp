#include "update/rebalancer.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "partition/partition.hpp"
#include "update/chip_set.hpp"

namespace clue::update {

namespace {

/// Upper bound on migrations per rebalance pass.
constexpr std::size_t kMaxStepsPerPass = 64;

}  // namespace

double occupancy_skew(std::span<const std::size_t> occupancy) {
  if (occupancy.size() < 2) return 1.0;
  std::size_t lo = *std::min_element(occupancy.begin(), occupancy.end());
  std::size_t hi = *std::max_element(occupancy.begin(), occupancy.end());
  lo = std::max<std::size_t>(lo, 1);
  hi = std::max<std::size_t>(hi, 1);
  return static_cast<double>(hi) / static_cast<double>(lo);
}

double headroom_remaining(std::span<const std::size_t> occupancy,
                          std::size_t capacity) {
  const std::size_t fullest =
      occupancy.empty()
          ? 0
          : *std::max_element(occupancy.begin(), occupancy.end());
  return 1.0 - static_cast<double>(fullest) / static_cast<double>(capacity);
}

std::vector<std::size_t> even_targets(std::span<const std::size_t> occupancy) {
  return partition::even_counts(
      std::accumulate(occupancy.begin(), occupancy.end(), std::size_t{0}),
      occupancy.size());
}

bool should_rebalance(std::span<const std::size_t> occupancy,
                      std::size_t chip_capacity) {
  if (occupancy.size() < 2) return false;
  if (chip_capacity > 0) {
    const double limit =
        kHeadroomWatermark * static_cast<double>(chip_capacity);
    for (std::size_t occ : occupancy) {
      if (static_cast<double>(occ) > limit) return true;
    }
  }
  const std::size_t total =
      std::accumulate(occupancy.begin(), occupancy.end(), std::size_t{0});
  if (total < kMinTotalEntries) return false;
  return occupancy_skew(occupancy) > kSkewWatermark;
}

std::optional<MigrationStep> plan_step(
    std::span<const std::size_t> occupancy) {
  const std::size_t n = occupancy.size();
  if (n < 2) return std::nullopt;
  const std::vector<std::size_t> targets = even_targets(occupancy);

  // delta over boundary i (between chip i and chip i+1): how many
  // entries the prefix [0..i] holds in excess of its even share.
  // Positive means flow rightward across the boundary, negative
  // leftward. Executing a step shrinks exactly one |delta| and leaves
  // the others untouched, so repeated plan_step strictly reduces total
  // imbalance: no oscillation, convergence in <= n-1 full steps.
  std::optional<MigrationStep> best;
  std::int64_t best_mag = 0;
  std::int64_t running = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    running += static_cast<std::int64_t>(occupancy[i]) -
               static_cast<std::int64_t>(targets[i]);
    if (running == 0) continue;
    const std::int64_t mag = running > 0 ? running : -running;
    if (mag <= best_mag) continue;
    MigrationStep step;
    std::size_t movable = 0;
    if (running > 0) {
      step.donor = i;
      step.receiver = i + 1;
      movable = occupancy[i];
    } else {
      // Leftward donors keep >= 1 entry: the donor's upper boundary
      // must stay at a real stored entry so the range map never needs
      // an address past the top of the space.
      step.donor = i + 1;
      step.receiver = i;
      movable = occupancy[i + 1] > 0 ? occupancy[i + 1] - 1 : 0;
    }
    step.count = std::min<std::size_t>(static_cast<std::size_t>(mag), movable);
    if (step.count == 0) continue;
    best = step;
    best_mag = mag;
  }
  return best;
}

RebalancePass run_rebalance_pass(
    const ChipSet& chips,
    const std::function<std::size_t(const MigrationStep&)>& migrate) {
  RebalancePass pass;
  while (pass.steps < kMaxStepsPerPass) {
    const auto step = plan_step(chips.occupancy());
    if (!step) break;
    const std::size_t moved = migrate(*step);
    if (moved == 0) break;  // nothing executable despite the plan
    pass.entries += moved;
    ++pass.steps;
  }
  return pass;
}

}  // namespace clue::update
