#include "system/clpl_system.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "partition/partition.hpp"
#include "rrcme/rrc_me.hpp"
#include "update/chip_set.hpp"

namespace clue::system {

namespace {

using Clock = std::chrono::steady_clock;
using update::elapsed_ns;

// Entries per RRC-ME cache: SystemConfig's default DRed capacity.
constexpr std::size_t kCacheCapacity = 1024;

}  // namespace

ClplSystem::ClplSystem(const trie::BinaryTrie& fib,
                       const ClplSystemConfig& config)
    : fib_(fib) {
  const auto partitions =
      partition::subtree_partition(fib_, config.tcam_count);
  for (std::size_t bucket = 0; bucket < config.tcam_count; ++bucket) {
    for (const auto& root : partitions.bucket_roots[bucket]) {
      root_index_.insert(root, netbase::make_next_hop(
                                   static_cast<std::uint32_t>(bucket) + 1));
    }
  }
  const std::size_t capacity =
      update::auto_capacity(partitions.max_bucket(), 1.0);
  chips_.reserve(config.tcam_count);
  caches_.reserve(config.tcam_count);
  for (std::size_t bucket = 0; bucket < config.tcam_count; ++bucket) {
    chips_.push_back(std::make_unique<tcam::ShahGuptaUpdater>(capacity));
    for (const auto& route : partitions.buckets[bucket].routes) {
      chips_[bucket]->insert(tcam::TcamEntry{route.prefix, route.next_hop});
      placement_[route.prefix].push_back(bucket);
    }
    caches_.push_back(
        std::make_unique<engine::DredStore>(kCacheCapacity));
  }
  for (auto& [prefix, chips] : placement_) {
    std::sort(chips.begin(), chips.end());
    chips.erase(std::unique(chips.begin(), chips.end()), chips.end());
  }
}

std::size_t ClplSystem::home_bucket(const netbase::Prefix& prefix) const {
  // Deepest carve root containing the prefix; new space with no carve
  // root falls back to chip 0 (both inserts and lookups use this same
  // function, so the fallback is consistent).
  const auto match = root_index_.lookup_route(prefix.range_low());
  if (match && match->prefix.contains(prefix)) {
    return netbase::to_index(match->next_hop) - 1;
  }
  return 0;
}

std::vector<std::size_t> ClplSystem::chips_for(
    const netbase::Prefix& prefix) const {
  std::vector<std::size_t> chips{home_bucket(prefix)};
  // Every carve root strictly inside `prefix` sees it as a covering
  // route; its bucket needs a replica for stand-alone LPM.
  for (const auto& root : root_index_.routes_within(prefix)) {
    chips.push_back(netbase::to_index(root.next_hop) - 1);
  }
  std::sort(chips.begin(), chips.end());
  chips.erase(std::unique(chips.begin(), chips.end()), chips.end());
  return chips;
}

netbase::NextHop ClplSystem::lookup(netbase::Ipv4Address address) {
  const auto match = root_index_.lookup_route(address);
  const std::size_t chip =
      match ? netbase::to_index(match->next_hop) - 1 : 0;
  const auto result = chips_[chip]->chip().search(address);
  return result.hit ? result.next_hop : netbase::kNoRoute;
}

ClplUpdateResult ClplSystem::apply(const workload::UpdateMsg& message) {
  ClplUpdateResult result;

  // TTF1: plain trie update.
  const auto start = Clock::now();
  bool table_changed;
  if (message.kind == workload::UpdateKind::kAnnounce) {
    const auto existing = fib_.find(message.prefix);
    table_changed = !existing || *existing != message.next_hop;
    fib_.insert(message.prefix, message.next_hop);
  } else {
    table_changed = fib_.erase(message.prefix);
  }
  result.ttf.ttf1_ns = elapsed_ns(start);
  if (!table_changed) return result;

  // TTF2: every chip holding (or due to hold) the prefix updates; chips
  // work in parallel, so the wall time is the slowest chip's cascade.
  std::vector<std::size_t> per_chip(chips_.size(), 0);
  if (message.kind == workload::UpdateKind::kAnnounce) {
    auto& chips = placement_[message.prefix];
    if (chips.empty()) chips = chips_for(message.prefix);
    for (const auto chip : chips) {
      per_chip[chip] += chips_[chip]->insert(
          tcam::TcamEntry{message.prefix, message.next_hop});
      ++result.entries_written;
    }
    result.chips_touched = chips.size();
  } else {
    const auto it = placement_.find(message.prefix);
    if (it != placement_.end()) {
      for (const auto chip : it->second) {
        per_chip[chip] += chips_[chip]->erase(message.prefix);
        ++result.entries_written;
      }
      result.chips_touched = it->second.size();
      placement_.erase(it);
    }
  }
  result.ttf.ttf2_ns =
      static_cast<double>(
          *std::max_element(per_chip.begin(), per_chip.end())) *
      update::CostModel::kTcamOpNs;

  // TTF3: RRC-ME cache maintenance. The control plane re-walks the
  // changed region in SRAM (path down to the prefix plus its subtree —
  // the expansions RRC-ME may have handed out all live there), then
  // probes the caches. Probes hit all chips in parallel, so each
  // distinct stale prefix costs one TCAM operation of wall time.
  const std::size_t subtree = fib_.nodes_within(message.prefix);
  result.ttf.ttf3_ns =
      static_cast<double>(message.prefix.length() + subtree) *
      update::CostModel::kSramAccessNs;
  std::unordered_set<netbase::Prefix> stale;
  for (auto& cache : caches_) {
    for (const auto& victim : cache->overlapping(message.prefix)) {
      cache->erase(victim);
      stale.insert(victim);
    }
  }
  result.ttf.ttf3_ns +=
      static_cast<double>(stale.size()) * update::CostModel::kTcamOpNs;
  return result;
}

void ClplSystem::warm(const std::vector<netbase::Ipv4Address>& addresses) {
  for (const auto address : addresses) {
    const auto fill = rrcme::minimal_expansion(fib_, address);
    if (!fill) continue;
    for (auto& cache : caches_) {
      cache->insert(netbase::Route{fill->prefix, fill->next_hop});
    }
  }
}

std::size_t ClplSystem::total_tcam_entries() const {
  std::size_t total = 0;
  for (const auto& chip : chips_) total += chip->size();
  return total;
}

}  // namespace clue::system
