// IndexingLogic — step II of the paper's Fig. 1 pipeline.
//
// Maps a destination address to its partition ("bucket") and home TCAM.
// For CLUE's even range partition the buckets are consecutive address
// ranges, so the logic is one binary search over n-1 boundaries — cheap
// enough for a small on-chip table in hardware.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "netbase/ipv4.hpp"
#include "netbase/prefix.hpp"

namespace clue::engine {

/// The bucket of a range partition holding `address`: bucket i covers
/// [boundaries[i-1], boundaries[i]) over ascending `boundaries`.
std::size_t bucket_index(const std::vector<netbase::Ipv4Address>& boundaries,
                         netbase::Ipv4Address address);

class IndexingLogic {
 public:
  /// `boundaries[i]` is the first address of bucket i+1 (ascending);
  /// `bucket_to_tcam[b]` is bucket b's home chip.
  IndexingLogic(std::vector<netbase::Ipv4Address> boundaries,
                std::vector<std::size_t> bucket_to_tcam);
  /// Each bucket is its own chip: bucket i homes on chip i.
  explicit IndexingLogic(std::vector<netbase::Ipv4Address> boundaries);

  std::size_t bucket_of(netbase::Ipv4Address address) const {
    return bucket_index(boundaries_, address);
  }
  std::size_t tcam_of(netbase::Ipv4Address address) const {
    return bucket_to_tcam_[bucket_of(address)];
  }

  std::size_t bucket_count() const { return bucket_to_tcam_.size(); }

 private:
  std::vector<netbase::Ipv4Address> boundaries_;
  std::vector<std::size_t> bucket_to_tcam_;
};

/// Splits `prefix` at the range-partition `boundaries` (ascending,
/// buckets-1 of them; boundaries[i] is the first address of bucket
/// i+1) into per-bucket CIDR pieces, appended to `out` in address order
/// (a caller-kept buffer, so planning allocates nothing once it has
/// grown). A region that lies inside one
/// bucket comes back unchanged; a region spanning boundaries is cut at
/// each one and re-decomposed into aligned blocks (netbase::cidr_cover)
/// so every piece can live wholly on its bucket's chip. Shared by
/// ClueSystem and runtime::LookupRuntime — the two state-accurate
/// planes must split identically or their chips would disagree.
void split_at_boundaries(
    const netbase::Prefix& prefix,
    const std::vector<netbase::Ipv4Address>& boundaries,
    std::vector<std::pair<std::size_t, netbase::Prefix>>& out);

}  // namespace clue::engine
