#include "update/clue_pipeline.hpp"

#include <string>

#include "engine/dispatch_policy.hpp"

namespace clue::update {

namespace {

/// Auto-sized capacity: room for the table to grow to 4x its initial
/// compressed size.
constexpr double kAutoHeadroom = 3.0;

}  // namespace

CluePipeline::CluePipeline(const trie::BinaryTrie& fib,
                           const PipelineConfig& config)
    : fib_(fib) {
  const std::size_t capacity =
      config.tcam_capacity > 0 ? config.tcam_capacity
                               : auto_capacity(fib_.size(), kAutoHeadroom);
  require_capacity("CluePipeline", capacity, fib_.compressed().size());
  tcam_ = std::make_unique<tcam::ClueUpdater>(capacity);
  for (const auto& route : fib_.compressed().routes()) {
    tcam_->insert(tcam::TcamEntry{route.prefix, route.next_hop});
  }
  dreds_.reserve(config.dred_count);
  for (std::size_t i = 0; i < config.dred_count; ++i) {
    dreds_.push_back(
        std::make_unique<engine::DredStore>(config.dred_capacity));
  }
}

TtfSample CluePipeline::apply(const workload::UpdateMsg& message) {
  const BatchTtfSample batch = apply_batch({&message, 1});
  if (batch.rejected > 0) {
    throw tcam::TcamFullError("CluePipeline::apply", tcam_capacity());
  }
  return batch.ttf;
}

BatchTtfSample CluePipeline::apply_batch(
    std::span<const workload::UpdateMsg> messages) {
  const std::vector<Ipv4Address> no_boundaries;
  const BatchTtfSample batch =
      commit_to_updaters(fib_, messages, {&tcam_, 1}, dreds_, no_boundaries);
  updates_rejected_ += batch.rejected;
  return batch;
}

void CluePipeline::warm(const std::vector<Ipv4Address>& addresses) {
  // warm_cursor_ holds the next round-robin "home" index directly, so
  // the per-address step is a wrapping increment — no modulo in what is
  // a 400K-iteration loop on big-table bench setups.
  std::size_t home = warm_cursor_;
  const std::size_t dred_count = dreds_.size();
  for (const auto address : addresses) {
    const auto matched = fib_.compressed().lookup_route(address);
    if (!matched) continue;
    // Fill every DRed the exclusion rule allows for this home chip.
    for (std::size_t i = 0; i < dred_count; ++i) {
      if (engine::dred_may_cache(i, home)) dreds_[i]->insert(*matched);
    }
    if (++home == dred_count) home = 0;
  }
  warm_cursor_ = home;
}

NextHop CluePipeline::lookup(Ipv4Address address) {
  const auto result = tcam_->chip().search(address);
  return result.hit ? result.next_hop : netbase::kNoRoute;
}

void CluePipeline::export_metrics(obs::MetricsRegistry& registry) const {
  const std::size_t capacity = tcam_->chip().capacity();
  registry.set_counter("pipeline.routes", fib_.ground_truth().size());
  registry.set_counter("pipeline.compressed_routes", fib_.size());
  registry.set_counter("pipeline.tcam_entries", tcam_->size());
  registry.set_counter("pipeline.tcam_capacity", capacity);
  registry.set_counter("pipeline.updates_rejected", updates_rejected_);
  registry.set_gauge("pipeline.headroom_remaining",
                     capacity == 0
                         ? 0.0
                         : 1.0 - static_cast<double>(tcam_->size()) /
                                     static_cast<double>(capacity));
  for (std::size_t i = 0; i < dreds_.size(); ++i) {
    const std::string prefix = "pipeline.dred" + std::to_string(i);
    const auto& stats = dreds_[i]->stats();
    registry.set_counter(prefix + ".hits", stats.hits);
    registry.set_counter(prefix + ".lookups", stats.lookups);
    registry.set_gauge(prefix + ".hit_rate", stats.hit_rate());
  }
}

}  // namespace clue::update
