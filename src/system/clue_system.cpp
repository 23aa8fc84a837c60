#include "system/clue_system.hpp"

#include <algorithm>
#include <string>

#include "engine/dispatch_policy.hpp"

namespace clue::system {

ClueSystem::ClueSystem(const trie::BinaryTrie& fib,
                       const SystemConfig& config)
    : fib_(fib),
      chips_(update::ChipSet::even("ClueSystem", fib_.compressed().routes(),
                                   config.tcam_count, config.tcam_capacity)),
      rebalance_(config.rebalance) {
  dreds_.reserve(config.tcam_count);
  for (std::size_t i = 0; i < config.tcam_count; ++i) {
    dreds_.push_back(
        std::make_unique<engine::DredStore>(config.dred_capacity));
  }
}

NextHop ClueSystem::lookup(Ipv4Address address) {
  return chips_.chip(chips_.chip_of(address)).lookup(address);
}

update::TtfSample ClueSystem::apply(const workload::UpdateMsg& message) {
  const update::BatchTtfSample batch = apply_batch({&message, 1});
  if (batch.rejected > 0) {
    throw tcam::TcamFullError("ClueSystem::apply", chips_.capacity());
  }
  return batch.ttf;
}

update::BatchTtfSample ClueSystem::apply_batch(
    std::span<const workload::UpdateMsg> messages) {
  update::BatchTxn txn(fib_, messages);
  const update::CommitPlan& plan = txn.admit(
      chips_, [this] { return rebalance_ ? rebalance_now() : 0; });
  update::BatchTtfSample batch = txn.sample();
  updates_rejected_ += batch.rejected;
  // No reader runs beside the serial host: what a patch unlinks parks at
  // once, when its bundle is dropped. Order-free chip (§IV-B): one write
  // or erase per net op, chips in parallel, so the busiest chip is the
  // critical path.
  std::size_t critical_ops = 0;
  for (update::StagedPatch& staged : chips_.stage(plan.chips)) {
    chips_.apply(staged);
    const update::ChipWork& work = plan.chips[staged.chip];
    critical_ops =
        std::max(critical_ops, work.erases.size() + work.writes.size());
  }
  batch.ttf.ttf2_ns =
      static_cast<double>(critical_ops) * update::CostModel::kTcamOpNs;

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
      update::should_rebalance(chips_.occupancy(), chips_.capacity())) {
    rebalance_now();
  }
  return batch;
}

void ClueSystem::warm(const std::vector<Ipv4Address>& addresses) {
  for (const auto address : addresses) {
    const std::size_t home = chips_.chip_of(address);
    // The stored shape, not the compressed region: a region split at a
    // boundary is stored as pieces, and the DRed sync erases pieces.
    const auto stored = chips_.chip(home).lookup_route(address);
    if (!stored) continue;
    for (std::size_t i = 0; i < dreds_.size(); ++i) {
      if (engine::dred_may_cache(i, home)) dreds_[i]->insert(*stored);
    }
  }
}

std::size_t ClueSystem::migrate(const update::MigrationStep& step) {
  update::StagedMigration staged = chips_.stage_migration(step);
  const std::vector<Route>& migrated = staged.run.routes;
  if (migrated.empty()) return 0;
  // Exclusion invariant: the receiver's DRed must not cache what is now
  // the receiver's own prefix. Other DReds may keep it — the route itself
  // did not change.
  for (const Route& route : migrated) {
    dreds_[step.receiver]->erase(route.prefix);
  }
  chips_.apply(staged.gain);
  chips_.apply(staged.loss);
  chips_.move_boundary(staged.run);
  return migrated.size();
}

std::size_t ClueSystem::rebalance_now() {
  const update::RebalancePass pass = update::run_rebalance_pass(
      chips_,
      [this](const update::MigrationStep& step) { return migrate(step); });
  entries_migrated_ += pass.entries;
  rebalance_steps_ += pass.steps;
  if (pass.steps > 0) ++rebalance_passes_;
  return pass.steps;
}

std::unique_ptr<runtime::LookupRuntime> ClueSystem::runtime(
    runtime::RuntimeConfig config) const {
  if (config.worker_count == 0) config.worker_count = chips_.size();
  return std::make_unique<runtime::LookupRuntime>(fib_, config);
}

engine::EngineSetup ClueSystem::engine_setup() const {
  engine::EngineSetup setup;
  setup.bucket_boundaries = chips_.boundaries();
  for (std::size_t i = 0; i < chips_.size(); ++i) {
    setup.bucket_to_tcam.push_back(i);
    setup.tcam_routes.push_back(chips_.chip(i).stored_within(Prefix()));
  }
  return setup;
}

void ClueSystem::export_metrics(obs::MetricsRegistry& registry) const {
  registry.set_counter("system.routes", fib_.ground_truth().size());
  registry.set_counter("system.compressed_routes", fib_.compressed().size());
  registry.set_gauge("onrtc.trie_bytes",
                     static_cast<double>(fib_.memory_bytes()));
  registry.set_counter("onrtc.trie_growths", fib_.trie_growths());
  registry.set_counter("system.tcam_entries", total_tcam_entries());
  registry.set_counter("system.tcam_count", chips_.size());
  registry.set_counter("system.tcam_capacity", chips_.capacity());
  registry.set_counter("system.updates_rejected", updates_rejected_);
  registry.set_counter("system.rebalance_passes", rebalance_passes_);
  registry.set_counter("system.rebalance_steps", rebalance_steps_);
  registry.set_counter("system.entries_migrated", entries_migrated_);
  registry.set_gauge("system.skew", skew());
  registry.set_gauge("system.headroom_remaining", chips_.headroom_remaining());
  for (std::size_t i = 0; i < chips_.size(); ++i) {
    const std::string prefix = "system.chip" + std::to_string(i);
    registry.set_counter(prefix + ".entries", chips_.chip(i).route_count());
    const auto& stats = dreds_[i]->stats();
    registry.set_counter(prefix + ".dred.insertions", stats.insertions);
    registry.set_counter(prefix + ".dred.updates", stats.updates);
    registry.set_counter(prefix + ".dred.evictions", stats.evictions);
    registry.set_counter(prefix + ".dred.erasures", stats.erasures);
  }
}

}  // namespace clue::system
