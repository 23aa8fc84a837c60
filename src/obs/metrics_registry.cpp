#include "obs/metrics_registry.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace clue::obs {

namespace {

template <typename Sections>
auto* find_entry(Sections& section, const std::string& name) {
  for (auto& entry : section) {
    if (entry.first == name) return &entry.second;
  }
  return decltype(&section.front().second){nullptr};
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// JSON has no inf/nan; non-finite values export as 0.
void json_number(std::ostream& os, double value) {
  if (!std::isfinite(value)) {
    os << 0;
    return;
  }
  std::ostringstream tmp;
  tmp.precision(15);
  tmp << value;
  os << tmp.str();
}

void json_histogram(std::ostream& os, const HistogramSnapshot& h) {
  os << "{\"count\":" << h.total << ",\"sum_ns\":" << h.sum_ns
     << ",\"mean_ns\":";
  json_number(os, h.mean_ns());
  os << ",\"p50_ns\":";
  json_number(os, h.quantile_ns(0.50));
  os << ",\"p90_ns\":";
  json_number(os, h.quantile_ns(0.90));
  os << ",\"p99_ns\":";
  json_number(os, h.quantile_ns(0.99));
  os << ",\"p999_ns\":";
  json_number(os, h.quantile_ns(0.999));
  os << ",\"buckets\":[";
  bool first = true;
  for (std::size_t b = 0; b < HistogramSnapshot::kBuckets; ++b) {
    if (h.counts[b] == 0) continue;
    if (!first) os << ',';
    first = false;
    os << "{\"le_ns\":";
    json_number(os, HistogramSnapshot::bucket_upper_ns(b));
    os << ",\"count\":" << h.counts[b] << '}';
  }
  os << "]}";
}

void json_ttf_entry(std::ostream& os, const TtfTraceEntry& e) {
  os << "{\"seq\":" << e.seq << ",\"ttf1_ns\":";
  json_number(os, e.ttf1_ns);
  os << ",\"ttf2_ns\":";
  json_number(os, e.ttf2_ns);
  os << ",\"ttf3_ns\":";
  json_number(os, e.ttf3_ns);
  os << ",\"chips_touched\":" << e.chips_touched
     << ",\"control_msgs\":" << e.control_msgs
     << ",\"queue_depth_max\":" << e.queue_depth_max
     << ",\"queue_depth_mean\":";
  json_number(os, e.queue_depth_mean);
  os << ",\"rebalance_ns\":";
  json_number(os, e.rebalance_ns);
  os << ",\"rebalance_steps\":" << e.rebalance_steps
     << ",\"entries_migrated\":" << e.entries_migrated
     << ",\"admit_ns\":";
  json_number(os, e.admit_ns);
  os << ",\"flat_ns\":";
  json_number(os, e.flat_ns);
  os << ",\"grace_ns\":";
  json_number(os, e.grace_ns);
  os << ",\"batch_size\":" << e.batch_size << ",\"ops_raw\":" << e.ops_raw
     << ",\"ops_merged\":" << e.ops_merged << '}';
}

}  // namespace

void MetricsRegistry::set_counter(const std::string& name,
                                  std::uint64_t value) {
  if (auto* existing = find_entry(counters_, name)) {
    *existing = value;
    return;
  }
  counters_.emplace_back(name, value);
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  if (auto* existing = find_entry(gauges_, name)) {
    *existing = value;
    return;
  }
  gauges_.emplace_back(name, value);
}

void MetricsRegistry::add_histogram(const std::string& name,
                                    HistogramSnapshot snapshot) {
  if (auto* existing = find_entry(histograms_, name)) {
    *existing = std::move(snapshot);
    return;
  }
  histograms_.emplace_back(name, std::move(snapshot));
}

void MetricsRegistry::add_ttf_trace(const std::string& name,
                                    std::vector<TtfTraceEntry> entries) {
  if (auto* existing = find_entry(ttf_traces_, name)) {
    *existing = std::move(entries);
    return;
  }
  ttf_traces_.emplace_back(name, std::move(entries));
}

void MetricsRegistry::add_table(std::string name,
                                std::vector<std::string> headers,
                                std::vector<std::vector<std::string>> rows) {
  for (auto& table : tables_) {
    if (table.name == name) {
      table.headers = std::move(headers);
      table.rows = std::move(rows);
      return;
    }
  }
  tables_.push_back(
      Table{std::move(name), std::move(headers), std::move(rows)});
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream os;
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (i) os << ',';
    os << '"' << json_escape(counters_[i].first)
       << "\":" << counters_[i].second;
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    if (i) os << ',';
    os << '"' << json_escape(gauges_[i].first) << "\":";
    json_number(os, gauges_[i].second);
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < histograms_.size(); ++i) {
    if (i) os << ',';
    os << '"' << json_escape(histograms_[i].first) << "\":";
    json_histogram(os, histograms_[i].second);
  }
  os << "},\"ttf_traces\":{";
  for (std::size_t i = 0; i < ttf_traces_.size(); ++i) {
    if (i) os << ',';
    os << '"' << json_escape(ttf_traces_[i].first) << "\":[";
    for (std::size_t j = 0; j < ttf_traces_[i].second.size(); ++j) {
      if (j) os << ',';
      json_ttf_entry(os, ttf_traces_[i].second[j]);
    }
    os << ']';
  }
  os << "},\"tables\":{";
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const auto& table = tables_[t];
    if (t) os << ',';
    os << '"' << json_escape(table.name) << "\":[";
    for (std::size_t r = 0; r < table.rows.size(); ++r) {
      if (r) os << ',';
      os << '{';
      for (std::size_t c = 0;
           c < table.headers.size() && c < table.rows[r].size(); ++c) {
        if (c) os << ',';
        os << '"' << json_escape(table.headers[c]) << "\":\""
           << json_escape(table.rows[r][c]) << '"';
      }
      os << '}';
    }
    os << ']';
  }
  os << "}}";
  return os.str();
}

void MetricsRegistry::write_csv(std::ostream& os) const {
  os << "metric,kind,value\n";
  for (const auto& [name, value] : counters_) {
    os << name << ",counter," << value << '\n';
  }
  for (const auto& [name, value] : gauges_) {
    os << name << ",gauge," << value << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << name << ".count,histogram," << h.total << '\n';
    os << name << ".mean_ns,histogram," << h.mean_ns() << '\n';
    os << name << ".p50_ns,histogram," << h.quantile_ns(0.50) << '\n';
    os << name << ".p90_ns,histogram," << h.quantile_ns(0.90) << '\n';
    os << name << ".p99_ns,histogram," << h.quantile_ns(0.99) << '\n';
    os << name << ".p999_ns,histogram," << h.quantile_ns(0.999) << '\n';
  }
}

void MetricsRegistry::dump(std::ostream& os) const {
  for (const auto& [name, value] : counters_) {
    os << name << " = " << value << '\n';
  }
  for (const auto& [name, value] : gauges_) {
    os << name << " = " << value << '\n';
  }
  for (const auto& [name, h] : histograms_) {
    os << name << ": n=" << h.total << " mean=" << h.mean_ns()
       << "ns p50=" << h.quantile_ns(0.50) << "ns p90=" << h.quantile_ns(0.90)
       << "ns p99=" << h.quantile_ns(0.99)
       << "ns p999=" << h.quantile_ns(0.999) << "ns\n";
  }
  for (const auto& [name, entries] : ttf_traces_) {
    os << name << ": " << entries.size() << " trace entries\n";
  }
  for (const auto& table : tables_) {
    os << "table " << table.name << ": " << table.rows.size() << " rows x "
       << table.headers.size() << " cols\n";
  }
}

}  // namespace clue::obs
