#include "update/chip_set.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

namespace clue::update {

using Clock = std::chrono::steady_clock;
using netbase::Prefix;
using netbase::Route;

std::size_t auto_capacity(std::size_t share, double headroom) {
  return static_cast<std::size_t>(static_cast<double>(share) *
                                  (1.0 + std::max(headroom, 0.0))) +
         8192;
}

ChipSet ChipSet::even(const char* host, const std::vector<Route>& table,
                      std::size_t chips, std::size_t requested) {
  if (chips == 0) throw std::invalid_argument(std::string(host) + ": no chips");
  const auto layout = partition::even_partition(table, chips);
  const std::size_t capacity =
      requested > 0 ? requested
                    : auto_capacity(layout.total_entries() / chips + 1, 1.0);
  if (layout.max_bucket() > capacity) {
    throw std::invalid_argument(std::string(host) + ": capacity " +
                                std::to_string(capacity) +
                                " is below the initial share " +
                                std::to_string(layout.max_bucket()));
  }
  return ChipSet(layout, capacity);
}

ChipSet::ChipSet(const partition::PartitionResult& layout,
                 std::size_t capacity)
    : boundaries_(layout.boundaries), capacity_(capacity) {
  if (boundaries_.size() + 1 != layout.buckets.size()) {
    throw std::invalid_argument(
        "ChipSet: need exactly one boundary fewer than buckets");
  }
  const auto t0 = Clock::now();
  for (const auto& bucket : layout.buckets) {
    // Painted straight from the chip's sorted, disjoint bucket; the image
    // is the chip's only representation from here on.
    images_.push_back(std::make_unique<engine::FlatLookupTable>(bucket.routes));
  }
  build_ns_ = elapsed_ns(t0);
}

std::vector<std::size_t> ChipSet::occupancy() const {
  std::vector<std::size_t> occupancy(images_.size());
  for (std::size_t i = 0; i < images_.size(); ++i) {
    occupancy[i] = images_[i]->route_count();
  }
  return occupancy;
}

std::size_t ChipSet::total_entries() const {
  const auto counts = occupancy();
  return std::accumulate(counts.begin(), counts.end(), std::size_t{0});
}

StagedPatch ChipSet::stage_chip(std::size_t chip,
                                std::span<const Prefix> erases,
                                std::span<const Route> writes) {
  const auto t0 = Clock::now();
  StagedPatch staged{chip, images_[chip]->stage(erases, writes), 0};
  staged.ns = elapsed_ns(t0);
  return staged;
}

std::span<StagedPatch> ChipSet::stage(std::span<const ChipWork> work) {
  staged_.clear();  // discards whatever a failed caller left unapplied
  try {
    for (std::size_t chip = 0; chip < work.size(); ++chip) {
      if (work[chip].empty()) continue;
      staged_.push_back(stage_chip(chip, work[chip].erases, work[chip].writes));
    }
  } catch (...) {
    staged_.clear();
    throw;
  }
  return staged_;
}

engine::FlatLookupTable::Retired ChipSet::apply(StagedPatch& staged) {
  const auto t0 = Clock::now();
  auto unlinked = images_[staged.chip]->apply(std::move(staged.patch));
  staged.ns += elapsed_ns(t0);
  return unlinked;
}

MigrationRun ChipSet::migration_run(const MigrationStep& step) const {
  MigrationRun run;
  const bool rightward = step.receiver == step.donor + 1;
  run.boundary = rightward ? step.donor : step.receiver;
  const std::size_t occupied = images_[step.receiver]->route_count();
  const std::size_t count =
      std::min(step.count, capacity_ - std::min(occupied, capacity_));
  images_[step.donor]->stored_within(Prefix(), run.routes,
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

StagedMigration ChipSet::stage_migration(const MigrationStep& step) {
  StagedMigration staged{migration_run(step), {}, {}, {}};
  if (staged.run.routes.empty()) return staged;
  std::vector<Prefix> erased;
  for (const Route& route : staged.run.routes) {
    erased.push_back(route.prefix);
    staged.sweep.push_back({engine::DredSync::Kind::kErase, route});
  }
  staged.gain = stage_chip(step.receiver, {}, staged.run.routes);
  staged.loss = stage_chip(step.donor, erased, {});
  return staged;
}

}  // namespace clue::update
