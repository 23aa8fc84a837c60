#include "engine/slpl_setup.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "partition/partition.hpp"

namespace clue::engine {

EngineSetup build_clue_setup(const std::vector<netbase::Route>& table,
                             std::size_t tcams) {
  auto partitions = partition::even_partition(table, tcams);
  EngineSetup setup;
  setup.bucket_boundaries = std::move(partitions.boundaries);
  for (std::size_t i = 0; i < tcams; ++i) {
    setup.tcam_routes.push_back(std::move(partitions.buckets[i].routes));
    setup.bucket_to_tcam.push_back(i);
  }
  return setup;
}

EngineSetup build_slpl_setup(const std::vector<netbase::Route>& table,
                             const std::vector<std::uint64_t>& bucket_load,
                             const SlplConfig& config) {
  if (bucket_load.size() != config.buckets) {
    throw std::invalid_argument(
        "build_slpl_setup: one load figure per bucket required");
  }
  if (config.tcam_count < 2) {
    throw std::invalid_argument("build_slpl_setup: need at least two TCAMs");
  }
  const auto partitions = partition::even_partition(table, config.buckets);

  EngineSetup setup;
  setup.bucket_boundaries = partitions.boundaries;
  setup.bucket_to_tcam.assign(config.buckets, 0);  // ignored in kSlpl
  setup.bucket_homes.assign(config.buckets, {});
  setup.tcam_routes.assign(config.tcam_count, {});

  // Phase 1: LPT — heaviest bucket to the least-loaded chip.
  std::vector<std::size_t> order(config.buckets);
  for (std::size_t i = 0; i < config.buckets; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&bucket_load](std::size_t a, std::size_t b) {
              return bucket_load[a] > bucket_load[b];
            });
  // Expected per-chip load, with a bucket's load split over its homes.
  std::vector<double> chip_load(config.tcam_count, 0.0);
  const auto least_loaded_chip_excluding =
      [&chip_load](const std::vector<std::size_t>& exclude) {
        std::size_t best = chip_load.size();
        for (std::size_t chip = 0; chip < chip_load.size(); ++chip) {
          if (std::find(exclude.begin(), exclude.end(), chip) !=
              exclude.end()) {
            continue;
          }
          if (best == chip_load.size() || chip_load[chip] < chip_load[best]) {
            best = chip;
          }
        }
        return best;
      };
  for (const auto bucket : order) {
    const std::size_t chip = least_loaded_chip_excluding({});
    setup.bucket_homes[bucket].push_back(chip);
    setup.bucket_to_tcam[bucket] = chip;
    chip_load[chip] += static_cast<double>(bucket_load[bucket]);
  }

  // Phase 2: spend the replication budget on the heaviest buckets,
  // always adding the currently least-loaded chip as the new replica.
  std::size_t budget = static_cast<std::size_t>(
      config.replication_budget * static_cast<double>(table.size()));
  for (int round = 0; round < 256 && budget > 0; ++round) {
    bool progressed = false;
    for (const auto bucket : order) {
      auto& homes = setup.bucket_homes[bucket];
      const std::size_t entries = partitions.buckets[bucket].routes.size();
      if (homes.size() >= config.tcam_count || entries == 0 ||
          entries > budget) {
        continue;
      }
      // Hot buckets replicate for dispatch flexibility (that is what the
      // 25 % is for); the least-loaded chip gets the copy.
      const std::size_t candidate = least_loaded_chip_excluding(homes);
      if (candidate == config.tcam_count) continue;
      // Re-split the bucket's load over one more home.
      for (const auto chip : homes) {
        chip_load[chip] -= static_cast<double>(bucket_load[bucket]) /
                           static_cast<double>(homes.size());
      }
      homes.push_back(candidate);
      for (const auto chip : homes) {
        chip_load[chip] += static_cast<double>(bucket_load[bucket]) /
                           static_cast<double>(homes.size());
      }
      budget -= entries;
      progressed = true;
      if (budget == 0) break;
    }
    if (!progressed) break;
  }

  // Materialise chip contents (bucket routes into every home).
  for (std::size_t bucket = 0; bucket < config.buckets; ++bucket) {
    for (const auto chip : setup.bucket_homes[bucket]) {
      auto& routes = setup.tcam_routes[chip];
      routes.insert(routes.end(),
                    partitions.buckets[bucket].routes.begin(),
                    partitions.buckets[bucket].routes.end());
    }
  }
  return setup;
}

}  // namespace clue::engine
