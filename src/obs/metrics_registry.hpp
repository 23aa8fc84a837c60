// MetricsRegistry — a named bag of metric values with exporters.
//
// Producers (LookupRuntime, ClueSystem, benches) fill a registry at
// export time from their live counters/histograms; the registry itself
// is plain single-threaded data, so exporting never perturbs the hot
// path. Three output shapes:
//
//   to_json()     everything — counters, gauges, histograms (with
//                 p50/p90/p99/p999 and non-empty buckets), TTF traces,
//                 tables —
//                 as one machine-readable document;
//   write_csv()   flat metric,kind,value rows (histograms flattened to
//                 count/mean/p50/p90/p99/p999);
//   dump()        a human-readable summary for terminals and logs.
//
// Tables carry a bench's figure series (the rows csv_out.hpp used to
// hand-roll) so one registry holds a whole run's output; bench helpers
// write each table to its own .csv file for gnuplot compatibility.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/ttf_trace.hpp"

namespace clue::obs {

class MetricsRegistry {
 public:
  struct Table {
    std::string name;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };

  /// Last write wins for a repeated name (each section keeps insertion
  /// order for stable output).
  void set_counter(const std::string& name, std::uint64_t value);
  void set_gauge(const std::string& name, double value);
  void add_histogram(const std::string& name, HistogramSnapshot snapshot);
  void add_ttf_trace(const std::string& name,
                     std::vector<TtfTraceEntry> entries);
  void add_table(std::string name, std::vector<std::string> headers,
                 std::vector<std::vector<std::string>> rows);

  const std::vector<std::pair<std::string, std::uint64_t>>& counters() const {
    return counters_;
  }
  const std::vector<std::pair<std::string, double>>& gauges() const {
    return gauges_;
  }
  const std::vector<std::pair<std::string, HistogramSnapshot>>& histograms()
      const {
    return histograms_;
  }
  const std::vector<std::pair<std::string, std::vector<TtfTraceEntry>>>&
  ttf_traces() const {
    return ttf_traces_;
  }
  const std::vector<Table>& tables() const { return tables_; }

  std::string to_json() const;
  void write_csv(std::ostream& os) const;
  void dump(std::ostream& os) const;

 private:
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
  std::vector<std::pair<std::string, double>> gauges_;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms_;
  std::vector<std::pair<std::string, std::vector<TtfTraceEntry>>> ttf_traces_;
  std::vector<Table> tables_;
};

}  // namespace clue::obs
