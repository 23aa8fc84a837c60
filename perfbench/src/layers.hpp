// Stand-alone per-layer measurements for the traced run: each layer's
// public entry point timed in isolation on the benchmark's inputs (the
// steps LookupRuntime's constructor and commit path chain together).
#pragma once

#include <cstddef>
#include <span>

#include "netbase/ipv4.hpp"
#include "report.hpp"
#include "trie/binary_trie.hpp"
#include "workload/update_gen.hpp"

namespace clue::perfbench {

/// Adds onrtc.*, partition.*, engine.*, trie.* and update.* metrics.
/// `chips` is the runtime's worker count; `burst` groups `updates` into
/// the commits update::coalesce_ops folds.
void measure_layers(const trie::BinaryTrie& rib,
                    std::span<const netbase::Ipv4Address> addresses,
                    std::span<const workload::UpdateMsg> updates,
                    std::size_t chips, std::size_t burst, Report& report);

}  // namespace clue::perfbench
