#include "update/clpl_pipeline.hpp"

#include <chrono>
#include <unordered_set>

#include "rrcme/rrc_me.hpp"

namespace clue::update {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ns(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

}  // namespace

ClplPipeline::ClplPipeline(const trie::BinaryTrie& fib,
                           const PipelineConfig& config)
    : fib_(fib) {
  std::size_t capacity = config.tcam_capacity;
  if (capacity == 0) capacity = 4 * fib_.size() + 8192;
  tcam_ = std::make_unique<tcam::ShahGuptaUpdater>(capacity);
  fib_.for_each_route([this](const netbase::Route& route) {
    tcam_->insert(tcam::TcamEntry{route.prefix, route.next_hop});
  });
  caches_.reserve(config.dred_count);
  for (std::size_t i = 0; i < config.dred_count; ++i) {
    caches_.push_back(
        std::make_unique<engine::DredStore>(config.dred_capacity));
  }
}

std::size_t ClplPipeline::subtree_nodes(const netbase::Prefix& prefix) const {
  return fib_.nodes_within(prefix);
}

TtfSample ClplPipeline::apply(const workload::UpdateMsg& message) {
  TtfSample sample;

  // --- TTF1: plain trie update (measured; the paper's ground truth). -----
  const auto start = Clock::now();
  bool table_changed;
  if (message.kind == workload::UpdateKind::kAnnounce) {
    const auto existing = fib_.find(message.prefix);
    table_changed = !existing || *existing != message.next_hop;
    fib_.insert(message.prefix, message.next_hop);
  } else {
    table_changed = fib_.erase(message.prefix);
  }
  sample.ttf1_ns = elapsed_ns(start);
  if (!table_changed) return sample;

  // --- TTF2: Shah-Gupta partial-order TCAM update. ------------------------
  const std::size_t tcam_ops =
      message.kind == workload::UpdateKind::kAnnounce
          ? tcam_->insert(tcam::TcamEntry{message.prefix, message.next_hop})
          : tcam_->erase(message.prefix);
  sample.ttf2_ns = static_cast<double>(tcam_ops) * CostModel::kTcamOpNs;

  // --- TTF3: RRC-ME cache maintenance. ------------------------------------
  // The control plane re-walks the changed region in SRAM (path down to
  // the prefix plus its subtree — the expansions RRC-ME may have handed
  // out all live there), then probes the caches once per stale prefix.
  // Probes hit all chips in parallel, so each distinct stale prefix
  // costs one TCAM operation of wall time.
  const std::size_t walk =
      message.prefix.length() + subtree_nodes(message.prefix);
  sample.ttf3_ns =
      static_cast<double>(walk) * CostModel::kSramAccessNs;
  std::unordered_set<netbase::Prefix> stale;
  for (auto& cache : caches_) {
    for (const auto& victim : cache->overlapping(message.prefix)) {
      stale.insert(victim);
      cache->erase(victim);
    }
  }
  sample.ttf3_ns +=
      static_cast<double>(stale.size()) * CostModel::kTcamOpNs;
  return sample;
}

void ClplPipeline::warm(const std::vector<netbase::Ipv4Address>& addresses) {
  for (const auto address : addresses) {
    const auto fill = rrcme::minimal_expansion(fib_, address);
    if (!fill) continue;
    for (auto& cache : caches_) {
      cache->insert(netbase::Route{fill->prefix, fill->next_hop});
    }
  }
}

netbase::NextHop ClplPipeline::lookup(netbase::Ipv4Address address) {
  const auto result = tcam_->chip().search(address);
  return result.hit ? result.next_hop : netbase::kNoRoute;
}

}  // namespace clue::update
