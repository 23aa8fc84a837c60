// fib_tool — a small CLI over the library, for working with routing
// tables in the plain-text RIB format (see workload/rib_io.hpp).
//
//   fib_tool gen <size> <seed>            # synthesize a RIB to stdout
//   fib_tool compress < in.rib            # ONRTC vs ORTC vs leaf-push
//   fib_tool compress --emit < in.rib     # print the ONRTC table itself
//   fib_tool partition <n> < in.rib       # even partition summary
//   fib_tool lookup <addr>... < in.rib    # LPM a few addresses
//   fib_tool simulate <tcams> <packets> [dred] < in.rib
//                                         # run the parallel engine
//   fib_tool verify <updates> [seed] < in.rib
//                                         # stress incremental ONRTC
//
// Exit status: 0 on success, 1 on usage/parse errors.
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/parallel_engine.hpp"
#include "engine/slpl_setup.hpp"
#include "onrtc/baselines.hpp"
#include "onrtc/compressed_fib.hpp"
#include "onrtc/onrtc.hpp"
#include "partition/partition.hpp"
#include "stats/stats.hpp"
#include "workload/rib_gen.hpp"
#include "workload/rib_io.hpp"
#include "workload/traffic_gen.hpp"
#include "workload/update_gen.hpp"

namespace {

int usage() {
  std::cerr << "usage: fib_tool gen <size> <seed>\n"
               "       fib_tool compress [--emit] < in.rib\n"
               "       fib_tool partition <n> < in.rib\n"
               "       fib_tool lookup <addr>... < in.rib\n"
               "       fib_tool simulate <tcams> <packets> [dred] < in.rib\n"
               "       fib_tool verify <updates> [seed] < in.rib\n";
  return 1;
}

// Replays a synthetic update storm against the incremental compressor
// and checks, periodically and at the end, that the incrementally
// maintained table equals a from-scratch compression — the library's
// central invariant, runnable against any user-supplied RIB.
int cmd_verify(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::size_t count = std::stoull(argv[0]);
  const std::uint64_t seed = argc > 1 ? std::stoull(argv[1]) : 1;

  const auto fib = clue::workload::read_rib_trie(std::cin);
  clue::onrtc::CompressedFib compressed(fib);
  clue::workload::UpdateConfig update_config;
  update_config.seed = seed;
  clue::workload::UpdateGenerator updates(fib, update_config);

  const std::size_t checkpoint = std::max<std::size_t>(count / 10, 1);
  for (std::size_t i = 1; i <= count; ++i) {
    const auto msg = updates.next();
    if (msg.kind == clue::workload::UpdateKind::kAnnounce) {
      compressed.announce(msg.prefix, msg.next_hop);
    } else {
      compressed.withdraw(msg.prefix);
    }
    if (i % checkpoint == 0 || i == count) {
      const auto rebuilt = clue::onrtc::compress(compressed.ground_truth());
      if (compressed.compressed().routes() != rebuilt) {
        std::cerr << "INVARIANT VIOLATION after update " << i << "\n";
        return 1;
      }
      if (!compressed.compressed().is_disjoint()) {
        std::cerr << "DISJOINTNESS VIOLATION after update " << i << "\n";
        return 1;
      }
      std::cout << "after " << i << " updates: " << compressed.size()
                << " regions, incremental == rebuild OK\n";
    }
  }
  std::cout << "verified " << count << " updates against "
            << fib.size() << "-route table\n";
  return 0;
}

int cmd_simulate(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::size_t tcams = std::stoull(argv[0]);
  const std::size_t packets = std::stoull(argv[1]);
  const std::size_t dred = argc > 2 ? std::stoull(argv[2]) : 1024;

  const auto fib = clue::workload::read_rib_trie(std::cin);
  const auto table = clue::onrtc::compress(fib);
  const auto setup = clue::engine::build_clue_setup(table, tcams);

  clue::engine::EngineConfig config;
  config.tcam_count = tcams;
  config.dred_capacity = dred;
  config.track_reorder = true;
  clue::engine::ParallelEngine engine(clue::engine::EngineMode::kClue,
                                      config, setup);

  clue::workload::TrafficConfig traffic_config;
  traffic_config.zipf_skew = 1.0;
  std::vector<clue::netbase::Prefix> prefixes;
  for (const auto& route : table) prefixes.push_back(route.prefix);
  clue::workload::TrafficGenerator traffic(prefixes, traffic_config);
  const auto metrics =
      engine.run([&traffic] { return traffic.next(); }, packets);

  std::cout << "table " << fib.size() << " -> " << table.size()
            << " compressed entries over " << tcams << " chips (DRed "
            << dred << "/chip)\n"
            << "completed " << metrics.packets_completed << "/"
            << metrics.packets_offered << " (dropped "
            << metrics.packets_dropped << ")\n"
            << "speedup "
            << clue::stats::fixed(metrics.speedup(config.service_clocks), 3)
            << ", DRed hit rate "
            << clue::stats::percent(metrics.dred_hit_rate())
            << ", reorder buffer max " << metrics.reorder_max_occupancy
            << " entries, mean hold "
            << clue::stats::fixed(metrics.reorder_mean_hold_clocks, 1)
            << " clocks\n";
  return 0;
}

int cmd_gen(int argc, char** argv) {
  if (argc < 2) return usage();
  clue::workload::RibConfig config;
  config.table_size = static_cast<std::size_t>(std::stoull(argv[0]));
  config.seed = std::stoull(argv[1]);
  const auto fib = clue::workload::generate_rib(config);
  clue::workload::write_rib(std::cout, fib.routes());
  return 0;
}

int cmd_compress(int argc, char** argv) {
  const bool emit = argc > 0 && std::string(argv[0]) == "--emit";
  const auto fib = clue::workload::read_rib_trie(std::cin);
  const auto onrtc = clue::onrtc::compress(fib);
  if (emit) {
    clue::workload::write_rib(std::cout, onrtc);
    return 0;
  }
  const auto ortc = clue::onrtc::ortc_compress(fib);
  const auto pushed = clue::onrtc::leaf_push(fib);
  clue::stats::TablePrinter table({"Table", "Entries", "vsOriginal",
                                   "Overlapping", "Encoder/Domino"});
  const auto row = [&](const char* name, std::size_t size, bool overlap) {
    table.add_row({name, std::to_string(size),
                   clue::stats::percent(static_cast<double>(size) /
                                        static_cast<double>(fib.size())),
                   overlap ? "yes" : "no", overlap ? "required" : "free"});
  };
  row("original", fib.size(), true);
  row("ortc (Draves et al.)", ortc.size(), true);
  row("onrtc (CLUE)", onrtc.size(), false);
  row("leaf-push", pushed.size(), false);
  table.print(std::cout);
  return 0;
}

int cmd_partition(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::size_t n = std::stoull(argv[0]);
  const auto fib = clue::workload::read_rib_trie(std::cin);
  const auto table = clue::onrtc::compress(fib);
  const auto result = clue::partition::even_partition(table, n);
  clue::stats::TablePrinter out({"Bucket", "Entries", "RangeLow", "RangeHigh"});
  for (std::size_t i = 0; i < result.buckets.size(); ++i) {
    const auto& routes = result.buckets[i].routes;
    out.add_row({std::to_string(i), std::to_string(routes.size()),
                 routes.empty() ? "-"
                                : routes.front().prefix.range_low().to_string(),
                 routes.empty() ? "-"
                                : routes.back().prefix.range_high().to_string()});
  }
  out.print(std::cout);
  return 0;
}

int cmd_lookup(int argc, char** argv) {
  if (argc < 1) return usage();
  const auto fib = clue::workload::read_rib_trie(std::cin);
  for (int i = 0; i < argc; ++i) {
    const auto address = clue::netbase::Ipv4Address::parse(argv[i]);
    if (!address) {
      std::cerr << "bad address: " << argv[i] << "\n";
      return 1;
    }
    const auto route = fib.lookup_route(*address);
    if (route) {
      std::cout << argv[i] << " -> nh"
                << clue::netbase::to_index(route->next_hop) << " via "
                << route->prefix.to_string() << "\n";
    } else {
      std::cout << argv[i] << " -> no route\n";
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "gen") return cmd_gen(argc - 2, argv + 2);
    if (command == "compress") return cmd_compress(argc - 2, argv + 2);
    if (command == "partition") return cmd_partition(argc - 2, argv + 2);
    if (command == "lookup") return cmd_lookup(argc - 2, argv + 2);
    if (command == "simulate") return cmd_simulate(argc - 2, argv + 2);
    if (command == "verify") return cmd_verify(argc - 2, argv + 2);
  } catch (const std::exception& error) {
    std::cerr << "fib_tool: " << error.what() << "\n";
    return 1;
  }
  return usage();
}
