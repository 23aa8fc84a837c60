#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "engine/flat_table.hpp"
#include "onrtc/compressed_fib.hpp"
#include "partition/partition.hpp"
#include "update/group_commit.hpp"

namespace clue::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point from) {
  return std::chrono::duration<double, std::micro>(Clock::now() - from)
      .count();
}

}  // namespace

void measure_layers(const trie::BinaryTrie& rib,
                    std::span<const netbase::Ipv4Address> addresses,
                    std::span<const workload::UpdateMsg> updates,
                    std::size_t chips, std::size_t burst, Report& report) {
  // ONRTC compression of the whole RIB.
  std::vector<double> compress_ms;
  std::unique_ptr<onrtc::CompressedFib> fib;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    fib = std::make_unique<onrtc::CompressedFib>(rib);
    compress_ms.push_back(elapsed_us(t0) / 1e3);
  }
  report.add("onrtc.compress_ms", "ms", compress_ms);

  // Even range partition of the compressed table into chip tables.
  const std::vector<netbase::Route> table = fib->compressed().routes();
  std::vector<double> split_ms;
  partition::PartitionResult parts;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    parts = partition::even_partition(table, chips);
    split_ms.push_back(elapsed_us(t0) / 1e3);
  }
  report.add("partition.split_ms", "ms", split_ms);

  std::vector<trie::BinaryTrie> chip_tables(chips);
  for (std::size_t c = 0; c < chips; ++c) {
    for (const netbase::Route& r : parts.buckets[c].routes) {
      chip_tables[c].insert(r.prefix, r.next_hop);
    }
  }

  // Full flat-image builds of every chip table (the runtime's start-up
  // cost per chip; updates rebuild copy-on-write).
  std::vector<double> flat_build_ms;
  double flat_bytes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    double total_us = 0;
    flat_bytes = 0;
    for (const trie::BinaryTrie& chip : chip_tables) {
      const auto t0 = Clock::now();
      const engine::FlatLookupTable flat(chip);
      total_us += elapsed_us(t0);
      flat_bytes += static_cast<double>(flat.memory_bytes());
    }
    flat_build_ms.push_back(total_us / 1e3);
  }
  report.add("engine.flat_build_ms", "ms", flat_build_ms);
  report.add_value("engine.flat_bytes", "bytes", flat_bytes);

  // Single-thread resolve ceiling: one flat image of the whole compressed
  // table, probed with the address stream.
  {
    const engine::FlatLookupTable flat(fib->compressed());
    std::vector<double> lookup_ns;
    std::uint32_t sink = 0;
    for (int pass = 0; pass < 5; ++pass) {
      const auto t0 = Clock::now();
      for (const netbase::Ipv4Address a : addresses) {
        sink += netbase::to_index(flat.lookup(a));
      }
      lookup_ns.push_back(elapsed_us(t0) * 1e3 /
                          static_cast<double>(addresses.size()));
    }
    volatile std::uint32_t keep = sink;
    (void)keep;
    report.add("engine.flat_lookup_ns", "ns", lookup_ns);
  }

  // Shadow copy of one chip-sized trie (the bulk of TTF2).
  std::vector<double> copy_us;
  for (int rep = 0; rep < 7; ++rep) {
    const auto t0 = Clock::now();
    const trie::BinaryTrie copy = chip_tables[0];
    copy_us.push_back(elapsed_us(t0));
  }
  report.add("trie.copy_us", "us", copy_us);

  // ONRTC diff per update message on a private CompressedFib, and the
  // group-commit fold over bursts of those diffs. Each burst of `burst`
  // stream messages is followed by a flap of every prefix in it (announced
  // again with another next hop), so the fold has same-prefix ops to merge.
  std::vector<double> diff_us;
  std::vector<double> coalesce_us;
  std::size_t ops_total = 0;
  std::size_t raw_total = 0;
  std::size_t merged_total = 0;
  std::vector<onrtc::FibOp> burst_ops;
  const auto diff = [&fib](const workload::UpdateMsg& msg) {
    return msg.kind == workload::UpdateKind::kAnnounce
               ? fib->announce(msg.prefix, msg.next_hop)
               : fib->withdraw(msg.prefix);
  };
  const std::uint32_t next_hops = workload::UpdateConfig{}.next_hops;
  const std::size_t limit = std::min<std::size_t>(updates.size(), 1024);
  for (std::size_t first = 0; first < limit; first += burst) {
    const std::span<const workload::UpdateMsg> msgs =
        updates.subspan(first, std::min(burst, limit - first));
    for (const workload::UpdateMsg& msg : msgs) {
      const auto t0 = Clock::now();
      const std::vector<onrtc::FibOp> ops = diff(msg);
      diff_us.push_back(elapsed_us(t0));
      ops_total += ops.size();
      burst_ops.insert(burst_ops.end(), ops.begin(), ops.end());
    }
    for (workload::UpdateMsg flap : msgs) {
      flap.kind = workload::UpdateKind::kAnnounce;
      flap.next_hop = netbase::make_next_hop(
          netbase::to_index(flap.next_hop) % next_hops + 1);
      const std::vector<onrtc::FibOp> ops = diff(flap);
      burst_ops.insert(burst_ops.end(), ops.begin(), ops.end());
    }
    update::CoalesceStats stats;
    const auto t1 = Clock::now();
    const auto merged = update::coalesce_ops(burst_ops, &stats);
    coalesce_us.push_back(elapsed_us(t1));
    raw_total += stats.raw_ops;
    merged_total += merged.size();
    burst_ops.clear();
  }
  report.add("onrtc.diff_us", "us", diff_us);
  report.add_value("onrtc.ops_per_msg", "ops",
                   limit ? static_cast<double>(ops_total) /
                               static_cast<double>(limit)
                         : 0.0);
  report.add("update.coalesce_us", "us", coalesce_us);
  report.add_value("update.coalesce_saving", "ratio",
                   raw_total ? 1.0 - static_cast<double>(merged_total) /
                                         static_cast<double>(raw_total)
                             : 0.0);
}

}  // namespace clue::perfbench
