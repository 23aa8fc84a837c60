// Unit tests for the observability layer: counter blocks, log-bucketed
// latency histograms (including merge correctness — the property that
// makes per-worker recording sound), the TTF trace ring, and the
// MetricsRegistry exporters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/ttf_trace.hpp"

namespace {

using clue::obs::CounterBlock;
using clue::obs::HistogramSnapshot;
using clue::obs::LatencyHistogram;
using clue::obs::MetricsRegistry;
using clue::obs::TtfTraceEntry;
using clue::obs::TtfTraceRing;

enum class TestCounter : std::size_t { kAlpha, kBeta, kGamma, kCount };

TEST(CounterBlockTest, StartsZeroAndAccumulates) {
  CounterBlock<TestCounter> block;
  EXPECT_EQ(block.get(TestCounter::kAlpha), 0u);
  block.add(TestCounter::kAlpha);
  block.add(TestCounter::kBeta, 5);
  block.add(TestCounter::kAlpha, 2);
  EXPECT_EQ(block.get(TestCounter::kAlpha), 3u);
  EXPECT_EQ(block.get(TestCounter::kBeta), 5u);
  EXPECT_EQ(block.get(TestCounter::kGamma), 0u);

  const auto snap = block.snapshot();
  EXPECT_EQ(snap[0], 3u);
  EXPECT_EQ(snap[1], 5u);
  EXPECT_EQ(snap[2], 0u);
}

TEST(CounterBlockTest, IsCacheLinePadded) {
  EXPECT_EQ(alignof(CounterBlock<TestCounter>) % 64, 0u);
}

TEST(CounterBlockTest, ConcurrentIncrementsAreLossless) {
  CounterBlock<TestCounter> block;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&block] {
      for (int i = 0; i < kPerThread; ++i) block.add(TestCounter::kAlpha);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(block.get(TestCounter::kAlpha),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(LatencyHistogramTest, BucketEdges) {
  // Bucket 0 is [0,1); bucket b is [2^(b-1), 2^b).
  EXPECT_EQ(HistogramSnapshot::bucket_of(0.0), 0u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(0.5), 0u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(1.0), 1u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(1.9), 1u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(2.0), 2u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(3.99), 2u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(4.0), 3u);
  EXPECT_EQ(HistogramSnapshot::bucket_of(1024.0), 11u);
  // Far beyond the last bucket clamps instead of overflowing.
  EXPECT_EQ(HistogramSnapshot::bucket_of(1e30), HistogramSnapshot::kBuckets - 1);

  for (std::size_t b = 1; b + 1 < HistogramSnapshot::kBuckets; ++b) {
    EXPECT_EQ(HistogramSnapshot::bucket_lower_ns(b + 1),
              HistogramSnapshot::bucket_upper_ns(b));
  }
}

TEST(LatencyHistogramTest, EmptySnapshot) {
  LatencyHistogram hist;
  const auto snap = hist.snapshot();
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.total, 0u);
  EXPECT_EQ(snap.quantile_ns(0.5), 0.0);
  EXPECT_EQ(snap.quantile_ns(0.0), 0.0);
  EXPECT_EQ(snap.quantile_ns(1.0), 0.0);
  EXPECT_EQ(snap.mean_ns(), 0.0);
}

TEST(LatencyHistogramTest, SingleSampleQuantiles) {
  LatencyHistogram hist;
  hist.record(100.0);  // bucket [64, 128)
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.total, 1u);
  // Every quantile of a single sample is that sample's bucket: q=0 its
  // lower edge, q>0 its upper edge.
  EXPECT_EQ(snap.quantile_ns(0.0), 64.0);
  EXPECT_EQ(snap.quantile_ns(0.5), 128.0);
  EXPECT_EQ(snap.quantile_ns(1.0), 128.0);
  EXPECT_NEAR(snap.mean_ns(), 100.0, 1.0);
}

TEST(LatencyHistogramTest, QuantilesBracketExactRanks) {
  LatencyHistogram hist;
  // 1000 samples at 100ns, 10 at 100us: p50 in 100ns's bucket, p999+ in
  // the outlier bucket.
  for (int i = 0; i < 1000; ++i) hist.record(100.0);
  for (int i = 0; i < 10; ++i) hist.record(100'000.0);
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.total, 1010u);
  EXPECT_EQ(snap.quantile_ns(0.5), 128.0);
  EXPECT_EQ(snap.quantile_ns(0.99), 128.0);
  EXPECT_EQ(snap.quantile_ns(0.9999), 131072.0);  // 2^17, bucket of 100us
  EXPECT_EQ(snap.quantile_ns(1.0), 131072.0);
  // Out-of-range q clamps.
  EXPECT_EQ(snap.quantile_ns(-0.5), snap.quantile_ns(0.0));
  EXPECT_EQ(snap.quantile_ns(1.5), snap.quantile_ns(1.0));
}

TEST(LatencyHistogramTest, MergeEqualsCombinedRecording) {
  // The core soundness property of per-worker histograms: merging two
  // snapshots is indistinguishable from one histogram fed all samples.
  LatencyHistogram a, b, combined;
  std::uint64_t state = 88172645463325252ull;
  const auto next = [&state] {  // xorshift, deterministic
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 4000; ++i) {
    const double ns = static_cast<double>(next() % 1'000'000);
    ((i % 2) ? a : b).record(ns);
    combined.record(ns);
  }
  auto merged = a.snapshot();
  merged.merge(b.snapshot());
  const auto expected = combined.snapshot();
  EXPECT_EQ(merged.total, expected.total);
  EXPECT_EQ(merged.sum_ns, expected.sum_ns);
  EXPECT_EQ(merged.counts, expected.counts);
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(merged.quantile_ns(q), expected.quantile_ns(q)) << "q=" << q;
  }
}

TEST(LatencyHistogramTest, MergeWithEmptyIsIdentity) {
  LatencyHistogram hist;
  for (int i = 0; i < 100; ++i) hist.record(50.0);
  auto merged = hist.snapshot();
  merged.merge(HistogramSnapshot{});
  EXPECT_EQ(merged.total, 100u);
  EXPECT_EQ(merged.quantile_ns(0.5), hist.snapshot().quantile_ns(0.5));
}

TEST(TtfTraceRingTest, KeepsMostRecentOldestFirst) {
  TtfTraceRing ring(4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    TtfTraceEntry entry;
    entry.seq = i;
    entry.ttf1_ns = static_cast<double>(i) * 10.0;
    ring.record(entry);
  }
  EXPECT_EQ(ring.recorded(), 10u);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].seq, 7u);
  EXPECT_EQ(snap[1].seq, 8u);
  EXPECT_EQ(snap[2].seq, 9u);
  EXPECT_EQ(snap[3].seq, 10u);
  EXPECT_EQ(snap[3].ttf1_ns, 100.0);
}

TEST(TtfTraceRingTest, PartialFill) {
  TtfTraceRing ring(8);
  TtfTraceEntry entry;
  entry.seq = 1;
  entry.ttf2_ns = 24.0;
  ring.record(entry);
  entry.seq = 2;
  ring.record(entry);
  const auto snap = ring.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].seq, 1u);
  EXPECT_EQ(snap[1].seq, 2u);
  EXPECT_EQ(snap[0].total_ns(), 24.0);
}

TEST(TtfTraceRingTest, CapacityZeroDisables) {
  TtfTraceRing ring(0);
  ring.record(TtfTraceEntry{});
  ring.record(TtfTraceEntry{});
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(MetricsRegistryTest, LastWriteWins) {
  MetricsRegistry registry;
  registry.set_counter("a", 1);
  registry.set_counter("b", 2);
  registry.set_counter("a", 7);
  registry.set_gauge("g", 0.5);
  registry.set_gauge("g", 0.75);
  ASSERT_EQ(registry.counters().size(), 2u);
  EXPECT_EQ(registry.counters()[0].first, "a");
  EXPECT_EQ(registry.counters()[0].second, 7u);
  EXPECT_EQ(registry.counters()[1].second, 2u);
  ASSERT_EQ(registry.gauges().size(), 1u);
  EXPECT_EQ(registry.gauges()[0].second, 0.75);
}

TEST(MetricsRegistryTest, JsonContainsEverySection) {
  MetricsRegistry registry;
  registry.set_counter("runtime.lookups", 42);
  registry.set_gauge("runtime.hit_rate", 0.875);
  LatencyHistogram hist;
  hist.record(100.0);
  hist.record(200.0);
  registry.add_histogram("runtime.service_ns", hist.snapshot());
  TtfTraceEntry entry;
  entry.seq = 3;
  entry.ttf1_ns = 10.0;
  entry.ttf2_ns = 20.0;
  entry.ttf3_ns = 30.0;
  registry.add_ttf_trace("runtime.ttf", {entry});
  registry.add_table("fig", {"x", "y"}, {{"1", "2"}, {"3", "4"}});

  const std::string json = registry.to_json();
  EXPECT_NE(json.find("\"runtime.lookups\""), std::string::npos);
  EXPECT_NE(json.find("42"), std::string::npos);
  EXPECT_NE(json.find("\"runtime.hit_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"runtime.service_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p50_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p90_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p999_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
  EXPECT_NE(json.find("\"runtime.ttf\""), std::string::npos);
  EXPECT_NE(json.find("\"ttf1_ns\""), std::string::npos);
  // TTF2 sub-spans travel with every trace entry.
  EXPECT_NE(json.find("\"admit_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"flat_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"grace_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"fig\""), std::string::npos);
  // Balanced braces/brackets — a cheap structural sanity check; the CI
  // smoke stage runs a real JSON parser over exporter output.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(MetricsRegistryTest, JsonEscapesStrings) {
  MetricsRegistry registry;
  registry.add_table("quo\"te", {"a\\b"}, {{"line\nbreak"}});
  const std::string json = registry.to_json();
  EXPECT_NE(json.find("quo\\\"te"), std::string::npos);
  EXPECT_NE(json.find("a\\\\b"), std::string::npos);
  EXPECT_NE(json.find("line\\nbreak"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);  // one line, no raw control
}

TEST(MetricsRegistryTest, JsonHandlesNonFiniteGauges) {
  MetricsRegistry registry;
  registry.set_gauge("bad_nan", std::nan(""));
  registry.set_gauge("bad_inf", std::numeric_limits<double>::infinity());
  const std::string json = registry.to_json();
  // Non-finite values must export as 0, never as bare nan/inf tokens.
  EXPECT_NE(json.find("\"bad_nan\":0"), std::string::npos);
  EXPECT_NE(json.find("\"bad_inf\":0"), std::string::npos);
}

TEST(MetricsRegistryTest, CsvFlattensEverything) {
  MetricsRegistry registry;
  registry.set_counter("c", 5);
  registry.set_gauge("g", 1.5);
  LatencyHistogram hist;
  hist.record(64.0);
  registry.add_histogram("h", hist.snapshot());
  std::ostringstream os;
  registry.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("metric,kind,value"), std::string::npos);
  EXPECT_NE(csv.find("c,counter,5"), std::string::npos);
  EXPECT_NE(csv.find("g,gauge,"), std::string::npos);
  EXPECT_NE(csv.find("h.count,histogram,1"), std::string::npos);
  EXPECT_NE(csv.find("h.p50_ns,histogram,"), std::string::npos);
  EXPECT_NE(csv.find("h.p90_ns,histogram,"), std::string::npos);
  EXPECT_NE(csv.find("h.p99_ns,histogram,"), std::string::npos);
  EXPECT_NE(csv.find("h.p999_ns,histogram,"), std::string::npos);
}

TEST(MetricsRegistryTest, DumpMentionsAllNames) {
  MetricsRegistry registry;
  registry.set_counter("lookups", 9);
  LatencyHistogram hist;
  hist.record(128.0);
  registry.add_histogram("svc", hist.snapshot());
  std::ostringstream os;
  registry.dump(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("lookups"), std::string::npos);
  EXPECT_NE(text.find("svc"), std::string::npos);
  EXPECT_NE(text.find("p999="), std::string::npos);
}

}  // namespace
