#include "engine/indexing_logic.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace clue::engine {

IndexingLogic::IndexingLogic(std::vector<netbase::Ipv4Address> boundaries,
                             std::vector<std::size_t> bucket_to_tcam)
    : boundaries_(std::move(boundaries)),
      bucket_to_tcam_(std::move(bucket_to_tcam)) {
  if (bucket_to_tcam_.empty()) {
    throw std::invalid_argument("IndexingLogic: need at least one bucket");
  }
  if (boundaries_.size() + 1 != bucket_to_tcam_.size()) {
    throw std::invalid_argument(
        "IndexingLogic: boundaries must be one fewer than buckets");
  }
  if (!std::is_sorted(boundaries_.begin(), boundaries_.end())) {
    throw std::invalid_argument("IndexingLogic: boundaries must be sorted");
  }
}

IndexingLogic::IndexingLogic(std::vector<netbase::Ipv4Address> boundaries)
    : IndexingLogic(boundaries,
                    std::vector<std::size_t>(boundaries.size() + 1)) {
  std::iota(bucket_to_tcam_.begin(), bucket_to_tcam_.end(), std::size_t{0});
}

std::size_t bucket_index(const std::vector<netbase::Ipv4Address>& boundaries,
                         netbase::Ipv4Address address) {
  const auto it =
      std::upper_bound(boundaries.begin(), boundaries.end(), address);
  return static_cast<std::size_t>(it - boundaries.begin());
}

void split_at_boundaries(
    const netbase::Prefix& prefix,
    const std::vector<netbase::Ipv4Address>& boundaries,
    std::vector<std::pair<std::size_t, netbase::Prefix>>& out) {
  const std::size_t first = bucket_index(boundaries, prefix.range_low());
  const std::size_t last = bucket_index(boundaries, prefix.range_high());
  if (first == last) {
    out.emplace_back(first, prefix);
    return;
  }
  netbase::Ipv4Address low = prefix.range_low();
  for (std::size_t bucket = first; bucket <= last; ++bucket) {
    const netbase::Ipv4Address high =
        bucket == last ? prefix.range_high()
                       : netbase::Ipv4Address(boundaries[bucket].value() - 1);
    if (low > high) continue;  // empty slice (boundary coincidence)
    for (const auto& piece : netbase::cidr_cover(low, high)) {
      out.emplace_back(bucket, piece);
    }
    if (bucket != last) low = boundaries[bucket];
  }
}

}  // namespace clue::engine
