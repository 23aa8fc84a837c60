// Ground truth for the benchmark's correctness checks.
//
// AnswerHistory holds, for every address of the pre-generated address
// stream, the longest-prefix-match answer of the plain BinaryTrie after
// each prefix of the update stream has been applied: a base answer (the
// generated RIB) plus the list of (state, answer) change points. State k
// means "the first k update messages applied".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netbase/ipv4.hpp"
#include "netbase/prefix.hpp"
#include "trie/binary_trie.hpp"
#include "workload/update_gen.hpp"

namespace clue::perfbench {

using netbase::Ipv4Address;
using netbase::NextHop;

class AnswerHistory {
 public:
  AnswerHistory(const trie::BinaryTrie& rib,
                std::span<const Ipv4Address> addresses,
                std::span<const workload::UpdateMsg> updates);

  /// Answer for address `index` once `state` updates have been applied.
  NextHop at(std::size_t index, std::uint64_t state) const;

 private:
  struct Change {
    std::uint32_t state = 0;
    NextHop hop = netbase::kNoRoute;
  };
  std::span<const Change> changes_of(std::size_t index) const {
    return {changes_.data() + offset_[index],
            changes_.data() + offset_[index + 1]};
  }

  std::vector<NextHop> base_;
  std::vector<std::uint32_t> offset_;  // CSR: changes of address i
  std::vector<Change> changes_;
};

/// FNV-1a fingerprints of the generated inputs.
std::uint64_t fingerprint(const trie::BinaryTrie& rib);
std::uint64_t fingerprint(std::span<const Ipv4Address> addresses);
std::uint64_t fingerprint(std::span<const workload::UpdateMsg> updates);

}  // namespace clue::perfbench
