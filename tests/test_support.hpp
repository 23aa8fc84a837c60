// Helpers shared by the host and runtime tests: a generated RIB, uniform
// random probe addresses, and announce/withdraw messages from prefix
// text.
#pragma once

#include <cstdint>
#include <vector>

#include "netbase/prefix.hpp"
#include "netbase/rng.hpp"
#include "trie/binary_trie.hpp"
#include "workload/rib_gen.hpp"
#include "workload/update_gen.hpp"

namespace clue::test_support {

/// A generated RIB of `routes` routes.
inline trie::BinaryTrie make_fib(std::size_t routes, std::uint64_t seed) {
  workload::RibConfig config;
  config.table_size = routes;
  config.seed = seed;
  return workload::generate_rib(config);
}

/// `count` uniformly random addresses.
inline std::vector<netbase::Ipv4Address> random_addresses(std::size_t count,
                                                          std::uint64_t seed) {
  netbase::Pcg32 rng(seed);
  std::vector<netbase::Ipv4Address> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.emplace_back(rng.next());
  return out;
}

inline workload::UpdateMsg announce(const char* prefix, std::uint32_t hop) {
  return workload::UpdateMsg{workload::UpdateKind::kAnnounce,
                             *netbase::Prefix::parse(prefix),
                             netbase::make_next_hop(hop)};
}

inline workload::UpdateMsg withdraw(const char* prefix) {
  return workload::UpdateMsg{workload::UpdateKind::kWithdraw,
                             *netbase::Prefix::parse(prefix),
                             netbase::kNoRoute};
}

}  // namespace clue::test_support
