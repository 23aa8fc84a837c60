// Metric collection and output for the benchmark: every metric is kept
// with its samples, printed as a table (name, unit, sample count,
// median, quartiles) and emitted as the final JSON line.
#pragma once

#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "stats/stats.hpp"

namespace clue::perfbench {

inline double quantile(const std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  stats::Percentiles p;
  for (const double s : samples) p.add(s);
  return p.quantile(q);
}

inline double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::vector<double> samples;  ///< what `value` summarises
};

class Report {
 public:
  /// Adds a metric whose value is the median of `samples`.
  void add(std::string name, std::string unit, std::vector<double> samples) {
    add_quantile(std::move(name), std::move(unit), std::move(samples), 0.5);
  }
  /// Adds a metric whose value is the `q`-quantile of `samples`.
  void add_quantile(std::string name, std::string unit,
                    std::vector<double> samples, double q) {
    const double value = quantile(samples, q);
    metrics_.push_back(
        {std::move(name), std::move(unit), value, std::move(samples)});
  }
  /// Adds a metric computed once (a count or a ratio of totals).
  void add_value(std::string name, std::string unit, double value) {
    metrics_.push_back({std::move(name), std::move(unit), value, {value}});
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

  void print_table(std::ostream& os) const {
    char line[256];
    std::snprintf(line, sizeof(line), "%-36s %-6s %13s %8s %13s %13s %13s\n",
                  "metric", "unit", "value", "n", "median", "q1", "q3");
    os << line;
    for (const Metric& m : metrics_) {
      std::snprintf(line, sizeof(line),
                    "%-36s %-6s %13.6g %8zu %13.6g %13.6g %13.6g\n",
                    m.name.c_str(), m.unit.c_str(), m.value, m.samples.size(),
                    median(m.samples), quantile(m.samples, 0.25),
                    quantile(m.samples, 0.75));
      os << line;
    }
  }

  /// The "metrics" object of the result line.
  std::string json() const {
    std::string out = "{";
    char number[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0;
      std::snprintf(number, sizeof(number), "%.17g", v);
      if (i) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + number +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace clue::perfbench
