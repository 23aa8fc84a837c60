#include "system/clue_system.hpp"

#include <algorithm>
#include <string>

#include "engine/dispatch_policy.hpp"
#include "partition/partition.hpp"

namespace clue::system {

ClueSystem::ClueSystem(const trie::BinaryTrie& fib,
                       const SystemConfig& config)
    : fib_(fib), rebalance_(config.rebalance) {
  const auto table = fib_.compressed().routes();
  const auto partitions =
      partition::even_partition(table, config.tcam_count);
  tcam_capacity_ =
      update::chip_capacity("ClueSystem", config.tcam_capacity, partitions);
  boundaries_ =
      partition::even_partition_boundaries(table, config.tcam_count);
  indexing_ = std::make_unique<engine::IndexingLogic>(boundaries_);
  chips_.reserve(config.tcam_count);
  dreds_.reserve(config.tcam_count);
  for (std::size_t i = 0; i < config.tcam_count; ++i) {
    chips_.push_back(std::make_unique<engine::FlatLookupTable>(
        partitions.buckets[i].routes));
    dreds_.push_back(
        std::make_unique<engine::DredStore>(config.dred_capacity));
  }
}

std::size_t ClueSystem::chip_of(Ipv4Address address) const {
  return indexing_->tcam_of(address);
}

NextHop ClueSystem::lookup(Ipv4Address address) {
  return chips_[chip_of(address)]->lookup(address);
}

update::TtfSample ClueSystem::apply(const workload::UpdateMsg& message) {
  const update::BatchTtfSample batch = apply_batch({&message, 1});
  if (batch.rejected > 0) {
    throw tcam::TcamFullError("ClueSystem::apply", tcam_capacity_);
  }
  return batch.ttf;
}

update::BatchTtfSample ClueSystem::apply_batch(
    std::span<const workload::UpdateMsg> messages) {
  update::BatchTxn txn(fib_, messages, plan_);
  const update::CommitPlan& plan = txn.admit(update::CommitHost{
      boundaries_, chips_, tcam_capacity_,
      [this] { return rebalance_ ? rebalance_pass() : 0; }});
  update::BatchTtfSample batch = txn.sample();
  updates_rejected_ += batch.rejected;
  batch.ttf.ttf2_ns =
      static_cast<double>(patch(plan.chips)) * update::CostModel::kTcamOpNs;

  // DRed sync (§IV-C): one parallel probe per synced stored shape, in
  // every DRed but the storing chip's own (which never caches it).
  for (std::size_t i = 0; i < dreds_.size(); ++i) {
    for (const auto& sync : plan.dred_erase) {
      if (sync.chip != i) dreds_[i]->erase(sync.route.prefix);
    }
    // fix(): rewrite in place; a sync message must not promote the entry
    // in LRU order.
    for (const auto& sync : plan.dred_fix) {
      if (sync.chip != i) dreds_[i]->fix(sync.route);
    }
  }
  batch.ttf.ttf3_ns =
      static_cast<double>(plan.dred_erase.size() + plan.dred_fix.size()) *
      update::CostModel::kTcamOpNs;

  // Drift watch: even out while the skew is still small.
  if (rebalance_ &&
      runtime::should_rebalance(chip_occupancy(), tcam_capacity_)) {
    rebalance_pass();
  }
  return batch;
}

std::size_t ClueSystem::patch(std::span<const update::ChipWork> chips) {
  // Build, then publish: a stage that throws discards the patches staged
  // before it as `staged` unwinds.
  std::vector<engine::FlatLookupTable::Patch> staged(chips.size());
  std::size_t critical_ops = 0;
  for (std::size_t chip = 0; chip < chips.size(); ++chip) {
    if (chips[chip].empty()) continue;
    staged[chip] = chips_[chip]->stage(chips[chip].erases, chips[chip].writes);
    // Order-free chip (§IV-B): one write or erase per net op, chips in
    // parallel.
    critical_ops = std::max(
        critical_ops, chips[chip].erases.size() + chips[chip].writes.size());
  }
  // No reader runs beside the serial host: what a patch unlinks parks at
  // once, when its bundle is dropped.
  for (std::size_t chip = 0; chip < chips.size(); ++chip) {
    if (!chips[chip].empty()) chips_[chip]->apply(std::move(staged[chip]));
  }
  return critical_ops;
}

void ClueSystem::warm(const std::vector<Ipv4Address>& addresses) {
  for (const auto address : addresses) {
    const std::size_t home = chip_of(address);
    // The stored shape, not the compressed region: a region split at a
    // boundary is stored as pieces, and the DRed sync erases pieces.
    const auto stored = chips_[home]->lookup_route(address);
    if (!stored) continue;
    for (std::size_t i = 0; i < dreds_.size(); ++i) {
      if (engine::dred_may_cache(i, home)) dreds_[i]->insert(*stored);
    }
  }
}

std::vector<std::size_t> ClueSystem::chip_occupancy() const {
  std::vector<std::size_t> occupancy(chips_.size());
  for (std::size_t i = 0; i < chips_.size(); ++i) {
    occupancy[i] = chips_[i]->route_count();
  }
  return occupancy;
}

double ClueSystem::skew() const {
  return runtime::occupancy_skew(chip_occupancy());
}

std::size_t ClueSystem::migrate(const runtime::MigrationStep& step) {
  const runtime::MigrationRun run =
      runtime::plan_migration_run(step, chips_, tcam_capacity_);
  if (run.routes.empty()) return 0;
  std::vector<update::ChipWork> work(chips_.size());
  for (const Route& route : run.routes) {
    work[step.receiver].writes.push_back(route);
    work[step.donor].erases.push_back(route.prefix);
    // Exclusion invariant: the receiver's DRed must not cache what is
    // now the receiver's own prefix. Other DReds may keep it — the
    // route itself did not change.
    dreds_[step.receiver]->erase(route.prefix);
  }
  patch(work);
  boundaries_[run.boundary] = run.new_boundary;
  indexing_ = std::make_unique<engine::IndexingLogic>(boundaries_);
  return run.routes.size();
}

std::size_t ClueSystem::rebalance_pass() {
  const runtime::RebalancePass pass = runtime::run_rebalance_pass(
      [this] { return chip_occupancy(); },
      [this](const runtime::MigrationStep& step) { return migrate(step); });
  entries_migrated_ += pass.entries;
  rebalance_steps_ += pass.steps;
  if (pass.steps > 0) ++rebalance_passes_;
  return pass.steps;
}

std::size_t ClueSystem::rebalance_now() { return rebalance_pass(); }

std::unique_ptr<runtime::LookupRuntime> ClueSystem::runtime(
    runtime::RuntimeConfig config) const {
  if (config.worker_count == 0) config.worker_count = chips_.size();
  return std::make_unique<runtime::LookupRuntime>(fib_, config);
}

engine::EngineSetup ClueSystem::engine_setup() const {
  engine::EngineSetup setup;
  setup.bucket_boundaries = boundaries_;
  for (std::size_t i = 0; i < chips_.size(); ++i) {
    setup.bucket_to_tcam.push_back(i);
    setup.tcam_routes.push_back(chips_[i]->stored_within(Prefix()));
  }
  return setup;
}

std::size_t ClueSystem::total_tcam_entries() const {
  std::size_t total = 0;
  for (const auto& chip : chips_) total += chip->route_count();
  return total;
}

void ClueSystem::export_metrics(obs::MetricsRegistry& registry) const {
  registry.set_counter("system.routes", fib_.ground_truth().size());
  registry.set_counter("system.compressed_routes", fib_.compressed().size());
  registry.set_gauge("onrtc.trie_bytes",
                     static_cast<double>(fib_.memory_bytes()));
  registry.set_counter("onrtc.trie_growths", fib_.trie_growths());
  registry.set_counter("system.tcam_entries", total_tcam_entries());
  registry.set_counter("system.tcam_count", chips_.size());
  registry.set_counter("system.tcam_capacity", tcam_capacity_);
  registry.set_counter("system.updates_rejected", updates_rejected_);
  registry.set_counter("system.rebalance_passes", rebalance_passes_);
  registry.set_counter("system.rebalance_steps", rebalance_steps_);
  registry.set_counter("system.entries_migrated", entries_migrated_);
  registry.set_gauge("system.skew", skew());
  const auto occupancy = chip_occupancy();
  const std::size_t occupied_max =
      occupancy.empty()
          ? 0
          : *std::max_element(occupancy.begin(), occupancy.end());
  // Fraction of the fullest chip still free — the overflow early warning
  // the rebalancer's headroom watermark fires on.
  registry.set_gauge("system.headroom_remaining",
                     tcam_capacity_ == 0
                         ? 1.0
                         : 1.0 - static_cast<double>(occupied_max) /
                                     static_cast<double>(tcam_capacity_));
  for (std::size_t i = 0; i < chips_.size(); ++i) {
    const std::string prefix = "system.chip" + std::to_string(i);
    registry.set_counter(prefix + ".entries", chips_[i]->route_count());
    const auto& stats = dreds_[i]->stats();
    registry.set_counter(prefix + ".dred.insertions", stats.insertions);
    registry.set_counter(prefix + ".dred.updates", stats.updates);
    registry.set_counter(prefix + ".dred.evictions", stats.evictions);
    registry.set_counter(prefix + ".dred.erasures", stats.erasures);
  }
}

}  // namespace clue::system
