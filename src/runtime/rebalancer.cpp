#include "runtime/rebalancer.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

namespace clue::runtime {

namespace {

/// Upper bound on migrations per rebalance pass.
constexpr std::size_t kMaxStepsPerPass = 64;

}  // namespace

MigrationRun plan_migration_run(
    const MigrationStep& step,
    std::span<const std::unique_ptr<engine::FlatLookupTable>> chips,
    std::size_t capacity) {
  MigrationRun run;
  const bool rightward = step.receiver == step.donor + 1;
  run.boundary = rightward ? step.donor : step.receiver;
  const std::size_t occupied = chips[step.receiver]->route_count();
  const std::size_t count =
      std::min(step.count, capacity - std::min(occupied, capacity));
  chips[step.donor]->stored_within(netbase::Prefix(), run.routes,
                                   count + !rightward, rightward);
  if (run.routes.empty()) return run;
  if (rightward) {
    run.new_boundary = run.routes.front().prefix.range_low();
  } else {
    // The walk's last route stays: the donor's range now begins at it.
    run.new_boundary = run.routes.back().prefix.range_low();
    run.routes.pop_back();
  }
  return run;
}

double occupancy_skew(std::span<const std::size_t> occupancy) {
  if (occupancy.size() < 2) return 1.0;
  std::size_t lo = *std::min_element(occupancy.begin(), occupancy.end());
  std::size_t hi = *std::max_element(occupancy.begin(), occupancy.end());
  lo = std::max<std::size_t>(lo, 1);
  hi = std::max<std::size_t>(hi, 1);
  return static_cast<double>(hi) / static_cast<double>(lo);
}

std::vector<std::size_t> even_targets(std::span<const std::size_t> occupancy) {
  const std::size_t n = occupancy.size();
  std::vector<std::size_t> targets(n, 0);
  if (n == 0) return targets;
  const std::size_t total =
      std::accumulate(occupancy.begin(), occupancy.end(), std::size_t{0});
  const std::size_t base = total / n;
  const std::size_t extra = total % n;
  if (base == 0) {
    // Degenerate: fewer entries than chips. Occupied chips go at the
    // *end* so the top chip — whose upper boundary must cover the top
    // of the address space — is never left empty (mirrors
    // partition::even_partition's empties-first layout).
    for (std::size_t i = n - extra; i < n; ++i) targets[i] = 1;
    return targets;
  }
  for (std::size_t i = 0; i < n; ++i) {
    targets[i] = base + (i < extra ? 1 : 0);
  }
  return targets;
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
    const std::function<std::vector<std::size_t>()>& occupancy,
    const std::function<std::size_t(const MigrationStep&)>& migrate) {
  RebalancePass pass;
  while (pass.steps < kMaxStepsPerPass) {
    const auto step = plan_step(occupancy());
    if (!step) break;
    const std::size_t moved = migrate(*step);
    if (moved == 0) break;  // nothing executable despite the plan
    pass.entries += moved;
    ++pass.steps;
  }
  return pass;
}

}  // namespace clue::runtime
