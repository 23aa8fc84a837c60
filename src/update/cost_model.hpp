// Hardware cost model for TTF accounting (paper §V-A).
//
// The paper's testbed TCAM (Cypress CYNSE70256, 41.5 MHz) costs ≈24 ns
// per operation — one search, one entry write, or one entry move — and
// every TTF2/TTF3 number in the paper is a multiple of it. Control-plane
// SRAM node visits (the trie RRC-ME walks) are charged separately.
#pragma once

#include <chrono>

namespace clue::update {

struct CostModel {
  /// One TCAM search / write / shift: 1 s / 41.5 MHz ≈ 24 ns.
  static constexpr double kTcamOpNs = 24.0;
  /// One control-plane SRAM node visit during a trie walk.
  static constexpr double kSramAccessNs = 10.0;
};

/// One update message's Time-To-Fresh decomposition (paper §IV).
struct TtfSample {
  double ttf1_ns = 0;  ///< trie (control-plane software) update time
  double ttf2_ns = 0;  ///< TCAM table update time
  double ttf3_ns = 0;  ///< DRed / logical-cache synchronisation time

  double data_plane_ns() const { return ttf2_ns + ttf3_ns; }
  double total_ns() const { return ttf1_ns + ttf2_ns + ttf3_ns; }
};

/// Measured wall time since `start`, in nanoseconds (TTF1 and the other
/// spans measured on this host, never the modeled ones above).
inline double elapsed_ns(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace clue::update
