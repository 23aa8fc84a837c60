#include "oracle.hpp"

#include <algorithm>
#include <utility>

namespace clue::perfbench {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace

AnswerHistory::AnswerHistory(const trie::BinaryTrie& rib,
                             std::span<const Ipv4Address> addresses,
                             std::span<const workload::UpdateMsg> updates) {
  const std::size_t n = addresses.size();
  base_.resize(n);
  for (std::size_t i = 0; i < n; ++i) base_[i] = rib.lookup(addresses[i]);

  // Addresses sorted by value, so the ones an update's prefix covers are
  // one contiguous run.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> by_value(n);
  for (std::size_t i = 0; i < n; ++i) {
    by_value[i] = {addresses[i].value(), static_cast<std::uint32_t>(i)};
  }
  std::sort(by_value.begin(), by_value.end());

  struct Pending {
    std::uint32_t index;
    Change change;
  };
  std::vector<Pending> pending;
  std::vector<NextHop> current = base_;
  trie::BinaryTrie truth = rib;
  for (std::size_t k = 0; k < updates.size(); ++k) {
    const workload::UpdateMsg& msg = updates[k];
    if (msg.kind == workload::UpdateKind::kAnnounce) {
      truth.insert(msg.prefix, msg.next_hop);
    } else {
      truth.erase(msg.prefix);
    }
    const std::uint32_t lo = msg.prefix.range_low().value();
    const std::uint32_t hi = msg.prefix.range_high().value();
    auto it = std::lower_bound(
        by_value.begin(), by_value.end(),
        std::pair<std::uint32_t, std::uint32_t>{lo, 0});
    for (; it != by_value.end() && it->first <= hi; ++it) {
      const NextHop now = truth.lookup(Ipv4Address(it->first));
      if (now != current[it->second]) {
        current[it->second] = now;
        pending.push_back(
            {it->second, {static_cast<std::uint32_t>(k + 1), now}});
      }
    }
  }

  // Counting sort by address index; stable, so each address's changes
  // stay in state order.
  offset_.assign(n + 1, 0);
  for (const Pending& p : pending) ++offset_[p.index + 1];
  for (std::size_t i = 0; i < n; ++i) offset_[i + 1] += offset_[i];
  changes_.resize(pending.size());
  std::vector<std::uint32_t> fill(offset_.begin(), offset_.end() - 1);
  for (const Pending& p : pending) changes_[fill[p.index]++] = p.change;
}

NextHop AnswerHistory::at(std::size_t index, std::uint64_t state) const {
  NextHop hop = base_[index];
  for (const Change& c : changes_of(index)) {
    if (c.state > state) break;
    hop = c.hop;
  }
  return hop;
}

std::uint64_t fingerprint(const trie::BinaryTrie& rib) {
  std::uint64_t hash = kFnvBasis;
  rib.for_each_route([&hash](const netbase::Route& route) {
    const std::uint32_t words[3] = {route.prefix.bits(),
                                    route.prefix.length(),
                                    netbase::to_index(route.next_hop)};
    hash = fnv1a(words, sizeof(words), hash);
  });
  return hash;
}

std::uint64_t fingerprint(std::span<const Ipv4Address> addresses) {
  std::uint64_t hash = kFnvBasis;
  for (const Ipv4Address a : addresses) {
    const std::uint32_t v = a.value();
    hash = fnv1a(&v, sizeof(v), hash);
  }
  return hash;
}

std::uint64_t fingerprint(std::span<const workload::UpdateMsg> updates) {
  std::uint64_t hash = kFnvBasis;
  for (const workload::UpdateMsg& m : updates) {
    const std::uint32_t words[4] = {
        static_cast<std::uint32_t>(m.kind), m.prefix.bits(),
        m.prefix.length(), netbase::to_index(m.next_hop)};
    hash = fnv1a(words, sizeof(words), hash);
  }
  return hash;
}

}  // namespace clue::perfbench
