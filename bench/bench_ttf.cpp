// Reproduces Figures 10-14: the TTF time series of CLUE vs CLPL over a
// 24-hour update stream (replayed as 48 half-hour buckets).
//
// Paper reference points (means):
//   TTF1: CLUE 0.2210 us, slightly above the uncompressed ground truth;
//   TTF2: CLPL 0.3598 us (≈15 shifts x 24 ns), CLUE 0.024 us (one shift);
//   TTF3: CLPL 0.1993 us (RRC-ME SRAM walk + cache probes), CLUE 0.024 us;
//   TTF2+TTF3: CLUE ≈ 4.29 % of CLPL; total TTF: CLPL ≈ 234 % of CLUE.
// TTF2/TTF3 use the same 24 ns/op hardware model as the paper, so they
// are directly comparable; TTF1 is measured on this machine and is
// faster in absolute terms than the paper's 2008-era host.
#include <algorithm>
#include <iostream>
#include <vector>

#include "metrics_out.hpp"
#include "stats/stats.hpp"
#include "system/clpl_system.hpp"
#include "system/clue_system.hpp"
#include "workload/rib_gen.hpp"
#include "workload/traffic_gen.hpp"
#include "workload/update_gen.hpp"

namespace {

constexpr std::size_t kTableSize = 60'000;
constexpr std::size_t kUpdates = 48'000;   // "24 hours" of updates
constexpr std::size_t kBuckets = 48;       // one point per half hour

struct Series {
  clue::stats::TimeSeries ttf1{kUpdates / kBuckets};
  clue::stats::TimeSeries ttf2{kUpdates / kBuckets};
  clue::stats::TimeSeries ttf3{kUpdates / kBuckets};
  clue::stats::TimeSeries data_plane{kUpdates / kBuckets};
  clue::stats::TimeSeries total{kUpdates / kBuckets};
  clue::stats::Percentiles data_plane_pct;
  clue::stats::Percentiles total_pct;

  void add(const clue::update::TtfSample& sample) {
    ttf1.add(sample.ttf1_ns / 1000.0);  // report microseconds
    ttf2.add(sample.ttf2_ns / 1000.0);
    ttf3.add(sample.ttf3_ns / 1000.0);
    data_plane.add(sample.data_plane_ns() / 1000.0);
    total.add(sample.total_ns() / 1000.0);
    data_plane_pct.add(sample.data_plane_ns() / 1000.0);
    total_pct.add(sample.total_ns() / 1000.0);
  }
};

void print_series(const char* figure, const char* metric,
                  const clue::stats::TimeSeries& clpl,
                  const clue::stats::TimeSeries& clue_series) {
  using clue::stats::fixed;
  std::cout << "\n=== " << figure << ": " << metric
            << " (us, per half-hour bucket) ===\n";
  const auto clpl_means = clpl.bucket_means();
  const auto clue_means = clue_series.bucket_means();
  clue::stats::TablePrinter table({"bucket", "CLPL", "CLUE"});
  for (std::size_t i = 0; i < clpl_means.size(); i += 4) {  // print every 4th
    table.add_row({std::to_string(i), fixed(clpl_means[i], 4),
                   fixed(clue_means[i], 4)});
  }
  table.print(std::cout);
  std::cout << metric << " summary: CLPL mean " << fixed(clpl.overall().mean(), 4)
            << " [" << fixed(clpl.overall().min(), 4) << ", "
            << fixed(clpl.overall().max(), 4) << "]; CLUE mean "
            << fixed(clue_series.overall().mean(), 4) << " ["
            << fixed(clue_series.overall().min(), 4) << ", "
            << fixed(clue_series.overall().max(), 4) << "]\n";
}

}  // namespace

int main() {
  using clue::stats::fixed;
  using clue::stats::percent;

  clue::workload::RibConfig rib_config;
  rib_config.table_size = kTableSize;
  rib_config.seed = 2011;
  const auto fib = clue::workload::generate_rib(rib_config);

  // The paper's whole-path update runs on one chip per scheme.
  clue::system::ClueSystem clue_system(fib, {.tcam_count = 1});
  clue::system::ClplSystem clpl_system(fib, {.tcam_count = 1});

  // Warm the CLPL caches so TTF3 pays realistic RRC-ME invalidations.
  // CLUE needs no warm-up: its TTF3 counts the stored shapes it syncs
  // and never reads DRed contents, and on one chip the exclusion rule
  // leaves its only DRed empty anyway.
  clue::workload::TrafficConfig traffic_config;
  traffic_config.seed = 77;
  std::vector<clue::netbase::Prefix> prefixes;
  fib.for_each_route([&prefixes](const clue::netbase::Route& route) {
    prefixes.push_back(route.prefix);
  });
  clue::workload::TrafficGenerator traffic(prefixes, traffic_config);
  clpl_system.warm(traffic.generate(8'000));

  clue::workload::UpdateConfig update_config;
  update_config.seed = 2012;
  clue::workload::UpdateGenerator clue_updates(fib, update_config);
  clue::workload::UpdateGenerator clpl_updates(fib, update_config);

  Series clue_series, clpl_series;
  // CLUE's TTF1 per update, and whether that update grew a control
  // trie's arena (one full-array copy inside the update).
  std::vector<std::pair<double, bool>> clue_ttf1;
  clue_ttf1.reserve(kUpdates);
  for (std::size_t i = 0; i < kUpdates; ++i) {
    const auto growths = clue_system.fib().trie_growths();
    const auto sample = clue_system.apply(clue_updates.next());
    clue_ttf1.emplace_back(sample.ttf1_ns / 1000.0,
                           clue_system.fib().trie_growths() != growths);
    clue_series.add(sample);
    clpl_series.add(clpl_system.apply(clpl_updates.next()).ttf);
  }

  std::cout << "Table: " << kTableSize << " routes; updates: " << kUpdates
            << " (announce/withdraw mix), hardware model 24 ns/TCAM op.\n";

  print_series("Figure 10", "TTF1 (trie update)", clpl_series.ttf1,
               clue_series.ttf1);
  {
    // Do CLUE's TTF1 maxima line up with arena growths?
    std::size_t grew = 0;
    double max_grew = 0;
    double max_other = 0;
    for (const auto& [us, growth] : clue_ttf1) {
      grew += growth;
      double& max = growth ? max_grew : max_other;
      max = std::max(max, us);
    }
    constexpr std::size_t kSlowest = 10;
    std::vector<std::pair<double, bool>> slowest = clue_ttf1;
    std::partial_sort(slowest.begin(), slowest.begin() + kSlowest,
                      slowest.end(), [](const auto& a, const auto& b) {
                        return a.first > b.first;
                      });
    std::size_t slowest_grew = 0;
    for (std::size_t i = 0; i < kSlowest; ++i) {
      slowest_grew += slowest[i].second;
    }
    std::cout << "CLUE TTF1 spikes: " << grew << " of " << clue_ttf1.size()
              << " updates grew a trie arena; " << slowest_grew << " of the "
              << kSlowest << " slowest did; max TTF1 with growth "
              << fixed(max_grew, 2) << " us, without " << fixed(max_other, 2)
              << " us\n";
  }
  print_series("Figure 11", "TTF2 (TCAM update)", clpl_series.ttf2,
               clue_series.ttf2);
  print_series("Figure 12", "TTF3 (DRed update)", clpl_series.ttf3,
               clue_series.ttf3);
  print_series("Figure 13", "TTF2+TTF3 (data plane)", clpl_series.data_plane,
               clue_series.data_plane);
  print_series("Figure 14", "TTF total", clpl_series.total,
               clue_series.total);

  const double dp_ratio = clue_series.data_plane.overall().mean() /
                          clpl_series.data_plane.overall().mean();
  const double total_ratio = clpl_series.total.overall().mean() /
                             clue_series.total.overall().mean();
  std::cout << "\nHeadline comparisons:\n"
            << "  TTF2+TTF3 CLUE/CLPL = " << percent(dp_ratio)
            << "   (paper: 4.29%)\n"
            << "  TTF total CLPL/CLUE = " << percent(total_ratio)
            << "   (paper: 234%; "
            << (total_ratio < 1.0 ? "inverted" : "narrower")
            << " here because measured TTF1\n"
               "   dominates on this host — see EXPERIMENTS.md)\n";
  // Figure series (one row per half-hour bucket) for plotting.
  {
    std::vector<std::vector<std::string>> rows;
    const auto emit = [&rows](const clue::stats::TimeSeries& clpl,
                              const clue::stats::TimeSeries& clue_series,
                              std::size_t column_pair) {
      const auto a = clpl.bucket_means();
      const auto b = clue_series.bucket_means();
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (column_pair == 0) {
          rows.push_back({std::to_string(i)});
        }
        rows[i].push_back(clue::stats::fixed(a[i], 5));
        rows[i].push_back(clue::stats::fixed(b[i], 5));
      }
    };
    emit(clpl_series.ttf1, clue_series.ttf1, 0);
    emit(clpl_series.ttf2, clue_series.ttf2, 1);
    emit(clpl_series.ttf3, clue_series.ttf3, 2);
    emit(clpl_series.total, clue_series.total, 3);
    clue::obs::MetricsRegistry registry;
    registry.add_table(
        "fig10_14_ttf",
        {"bucket", "ttf1_clpl", "ttf1_clue", "ttf2_clpl", "ttf2_clue",
         "ttf3_clpl", "ttf3_clue", "total_clpl", "total_clue"},
        rows);
    registry.set_gauge("ttf.clue.data_plane_mean_us",
                       clue_series.data_plane.overall().mean());
    registry.set_gauge("ttf.clpl.data_plane_mean_us",
                       clpl_series.data_plane.overall().mean());
    registry.set_gauge("ttf.data_plane_ratio", dp_ratio);
    registry.set_gauge("ttf.total_ratio", total_ratio);
    // Per-stage means, so the combined update-path report
    // (BENCH_update.json) carries the TTF1/2/3 split without parsing the
    // figure table.
    registry.set_gauge("ttf.clue.ttf1_mean_us",
                       clue_series.ttf1.overall().mean());
    registry.set_gauge("ttf.clue.ttf2_mean_us",
                       clue_series.ttf2.overall().mean());
    registry.set_gauge("ttf.clue.ttf3_mean_us",
                       clue_series.ttf3.overall().mean());
    registry.set_gauge("ttf.clpl.ttf1_mean_us",
                       clpl_series.ttf1.overall().mean());
    registry.set_gauge("ttf.clpl.ttf2_mean_us",
                       clpl_series.ttf2.overall().mean());
    registry.set_gauge("ttf.clpl.ttf3_mean_us",
                       clpl_series.ttf3.overall().mean());
    clue::bench::export_run("ttf", registry);
    clue::bench::export_bench_section("BENCH_update", "ttf", registry);
  }

  std::cout << "\nData-plane percentiles (us):\n"
            << "  CLUE  p50 " << fixed(clue_series.data_plane_pct.quantile(0.5), 4)
            << "  p90 " << fixed(clue_series.data_plane_pct.quantile(0.9), 4)
            << "  p99 " << fixed(clue_series.data_plane_pct.quantile(0.99), 4)
            << "\n  CLPL  p50 " << fixed(clpl_series.data_plane_pct.quantile(0.5), 4)
            << "  p90 " << fixed(clpl_series.data_plane_pct.quantile(0.9), 4)
            << "  p99 " << fixed(clpl_series.data_plane_pct.quantile(0.99), 4)
            << "\n";
  return 0;
}
