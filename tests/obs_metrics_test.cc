// Tests for the telemetry subsystem (src/obs): histogram bucket-boundary
// exactness, shard-merge bit-identity, registry semantics (idempotent Get,
// callback merging, render formats), and a scrape hammering a registry
// while writer threads ingest — the TSan-exercised invariant that scraping
// mid-epoch is always safe and loses no update.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/stats.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/ingest.h"

namespace {

using namespace ldpr;
using obs::Histogram;

// Every bucket's lower bound maps back to its own index, the value one
// below the next bucket's lower bound still lands in the bucket, and the
// edges are strictly increasing: the closed-form inverse is exact for all
// 480 buckets.
TEST(ObsHistogramBuckets, BoundaryExactness) {
  for (int i = 0; i < Histogram::kBucketCount; ++i) {
    const long long lo = Histogram::BucketLowerBound(i);
    EXPECT_EQ(Histogram::BucketIndex(lo), i) << "lower bound of bucket " << i;
    if (i + 1 < Histogram::kBucketCount) {
      const long long next = Histogram::BucketLowerBound(i + 1);
      EXPECT_GT(next, lo) << "edges must increase at bucket " << i;
      EXPECT_EQ(Histogram::BucketIndex(next - 1), i)
          << "last value of bucket " << i;
    }
  }
}

TEST(ObsHistogramBuckets, ClampsAndErrorBound) {
  EXPECT_EQ(Histogram::BucketIndex(-1), 0);
  EXPECT_EQ(Histogram::BucketIndex(-1'000'000), 0);
  EXPECT_EQ(Histogram::BucketIndex(1LL << 62), Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::BucketIndex((1LL << 62) + 12345),
            Histogram::kBucketCount - 1);

  // Log-linear with 8 sub-buckets per octave: relative bucket width is at
  // most 12.5% everywhere above the linear range.
  for (int i = Histogram::kSubBucketCount; i + 1 < Histogram::kBucketCount;
       ++i) {
    const double lo = static_cast<double>(Histogram::BucketLowerBound(i));
    const double hi = static_cast<double>(Histogram::BucketLowerBound(i + 1));
    EXPECT_LE(hi / lo, 1.125) << "bucket " << i;
  }
}

// Recording the same sample sequence through 8 shards or through 1 yields
// bit-identical merged snapshots — the shard split is invisible to readers,
// exactly like fo::Aggregator shards merged at Drain().
TEST(ObsHistogram, ShardMergeBitIdentity) {
  Histogram sharded(8);
  Histogram single(1);
  // The LCG steps in unsigned arithmetic, where wrap-around is defined;
  // masked to 40 bits, the samples fit a long long.
  std::uint64_t v = 1;
  std::vector<long long> samples;
  for (int i = 0; i < 10'000; ++i) {
    v = (v * 2862933555777941757ULL + 3037000493ULL) & ((1ULL << 40) - 1);
    samples.push_back(static_cast<long long>(v));
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    sharded.Record(samples[i], static_cast<int>(i % 8));
    single.Record(samples[i]);
  }
  const obs::HistogramSnapshot a = sharded.Merge();
  const obs::HistogramSnapshot b = single.Merge();
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  ASSERT_EQ(a.buckets.size(), b.buckets.size());
  for (std::size_t i = 0; i < a.buckets.size(); ++i) {
    EXPECT_EQ(a.buckets[i], b.buckets[i]) << "bucket " << i;
  }
}

TEST(ObsCounter, ShardMergeMatchesSingleShard) {
  obs::Counter sharded(8);
  obs::Counter single(1);
  for (int i = 0; i < 1000; ++i) {
    sharded.Add(i, i % 8);
    single.Add(i);
  }
  EXPECT_EQ(sharded.Value(), single.Value());
  EXPECT_EQ(sharded.Value(), 999LL * 1000 / 2);
}

TEST(ObsHistogram, PercentilesAndMax) {
  Histogram h(1);
  for (int i = 0; i < 100; ++i) h.Record(i < 90 ? 10 : 1000);
  const obs::HistogramSnapshot s = h.Merge();
  EXPECT_EQ(s.count, 100);
  EXPECT_EQ(s.sum, 90 * 10 + 10 * 1000);
  // p50 is inside the bucket holding 10 (exact in the linear range).
  EXPECT_EQ(s.ValueAtPercentile(50), Histogram::BucketLowerBound(
                                         Histogram::BucketIndex(10) + 1));
  // p99 and max land in 1000's bucket; edges bound it within 12.5%.
  EXPECT_GE(s.ValueAtPercentile(99), 1000);
  EXPECT_GE(s.Max(), 1000);
  EXPECT_LE(static_cast<double>(s.Max()), 1000 * 1.125);

  EXPECT_EQ(obs::HistogramSnapshot{}.ValueAtPercentile(50), 0);
  EXPECT_EQ(obs::HistogramSnapshot{}.Max(), 0);
}

TEST(ObsRegistry, GetIsIdempotent) {
  obs::MetricsRegistry registry;
  auto a = registry.GetCounter("x_total", "", "help", 4);
  auto b = registry.GetCounter("x_total", "", "other help", 1);
  EXPECT_EQ(a.get(), b.get());
  auto c = registry.GetCounter("x_total", "reason=\"shed\"", "help");
  EXPECT_NE(a.get(), c.get());
  auto h1 = registry.GetHistogram("h_seconds", "", "help", 2,
                                  obs::HistogramUnit::kSeconds);
  auto h2 = registry.GetHistogram("h_seconds", "", "help");
  EXPECT_EQ(h1.get(), h2.get());
}

// Counter samples with one (name, labels) key from different exporters sum;
// gauge samples overwrite; unregistered callbacks stop contributing.
TEST(ObsRegistry, CallbackMergeSemantics) {
  obs::MetricsRegistry registry;
  const long long id1 = registry.RegisterCallback([](auto& out) {
    out.push_back({"cb_total", "", 3.0, obs::MetricKind::kCounter, "h"});
    out.push_back({"cb_gauge", "", 1.0, obs::MetricKind::kGauge, "h"});
  });
  const long long id2 = registry.RegisterCallback([](auto& out) {
    out.push_back({"cb_total", "", 4.0, obs::MetricKind::kCounter, "h"});
    out.push_back({"cb_gauge", "", 2.0, obs::MetricKind::kGauge, "h"});
  });
  EXPECT_NE(id1, id2);
  EXPECT_DOUBLE_EQ(registry.SampleValue("cb_total", ""), 7.0);
  EXPECT_DOUBLE_EQ(registry.SampleValue("cb_gauge", ""), 2.0);
  registry.UnregisterCallback(id2);
  EXPECT_DOUBLE_EQ(registry.SampleValue("cb_total", ""), 3.0);
  EXPECT_DOUBLE_EQ(registry.SampleValue("missing", ""), 0.0);

  // Owned instrument + callback sample under the same key also sum.
  registry.GetCounter("cb_total", "", "h")->Add(10);
  EXPECT_DOUBLE_EQ(registry.SampleValue("cb_total", ""), 13.0);
}

TEST(ObsRegistry, PrometheusFormat) {
  obs::MetricsRegistry registry;
  registry.GetCounter("req_total", "code=\"200\"", "Requests")->Add(40000);
  registry.GetCounter("req_total", "code=\"500\"", "Requests")->Add(8);
  registry.GetGauge("temp", "", "Temperature")->Set(1.5);
  auto h = registry.GetHistogram("lat_seconds", "", "Latency", 1,
                                 obs::HistogramUnit::kSeconds);
  h->RecordSeconds(2e-9);  // 2 ns -> linear bucket
  h->RecordSeconds(2e-9);

  const std::string text = registry.RenderPrometheus();
  // Integer-valued series render without a decimal point (CI greps depend
  // on it), one HELP/TYPE block per name.
  EXPECT_NE(text.find("# HELP req_total Requests\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("req_total{code=\"200\"} 40000\n"), std::string::npos);
  EXPECT_NE(text.find("req_total{code=\"500\"} 8\n"), std::string::npos);
  EXPECT_NE(text.find("temp 1.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_seconds histogram\n"), std::string::npos);
  // Both samples sit in the ns=2 bucket: cumulative count 2 at le=3e-09
  // (the bucket's upper edge in seconds), and at +Inf.
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"3e-09\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum 4e-09\n"), std::string::npos);
  // One TYPE line per name even with two labeled series.
  const std::string type_line = "# TYPE req_total";
  EXPECT_EQ(text.find(type_line), text.rfind(type_line));
}

TEST(ObsRegistry, JsonRender) {
  obs::MetricsRegistry registry;
  registry.GetCounter("a_total", "k=\"v\"", "h")->Add(5);
  registry.GetHistogram("b", "", "h")->Record(7);
  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"name\":\"a_total\""), std::string::npos);
  EXPECT_NE(json.find("\"labels\":\"k=\\\"v\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":5"), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(ObsSpan, RecordsAndNullSafe) {
  obs::MetricsRegistry registry;
  auto h = registry.GetHistogram("span_seconds", "", "h", 1,
                                 obs::HistogramUnit::kSeconds);
  {
    obs::Span span(h.get());
  }
  EXPECT_EQ(h->Merge().count, 1);
  obs::Span manual(h.get());
  EXPECT_GE(manual.Stop(), 0.0);
  manual.Stop();  // disarmed: no double record
  EXPECT_EQ(h->Merge().count, 2);
  obs::Span null_span(nullptr);  // must not crash
  null_span.Stop();
}

// The shared reject formatter and the wire-level reason names must agree:
// the admin endpoint's per-reason series, the serve-demo footer, and the
// server's RejectReasonName all print the same vocabulary.
TEST(ObsStats, RejectFieldNamesMatchWireNames) {
  IngestCounters c;
  c.rejected = 1;
  c.duplicates = 2;
  c.rate_limited = 3;
  c.shed = 4;
  c.closed_epoch = 5;
  std::vector<std::string> names;
  std::vector<long long> values;
  ForEachRejectField(c, [&](const char* name, long long value) {
    names.push_back(name);
    values.push_back(value);
  });
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], serve::RejectReasonName(serve::RejectReason::kMalformed));
  EXPECT_EQ(names[1], serve::RejectReasonName(serve::RejectReason::kDuplicate));
  EXPECT_EQ(names[2],
            serve::RejectReasonName(serve::RejectReason::kRateLimited));
  EXPECT_EQ(names[3], serve::RejectReasonName(serve::RejectReason::kShed));
  EXPECT_EQ(names[4],
            serve::RejectReasonName(serve::RejectReason::kClosedEpoch));
  EXPECT_EQ(values, (std::vector<long long>{1, 2, 3, 4, 5}));
  EXPECT_EQ(FormatRejects(c),
            "rejects: malformed=1 duplicate=2 rate-limited=3 shed=4 "
            "closed-epoch=5");
}

// Writers hammer a counter and histogram on their own shards while a scraper
// renders in a loop: under TSan this proves the scrape path is race-free,
// and after joining, every single update is visible (relaxed atomics lose
// nothing — they only relax ordering).
TEST(ObsRegistry, ScrapeDuringConcurrentIngest) {
  obs::MetricsRegistry registry;
  constexpr int kWriters = 4;
  constexpr long long kPerWriter = 20'000;
  auto counter = registry.GetCounter("w_total", "", "h", kWriters);
  auto hist = registry.GetHistogram("w_hist", "", "h", kWriters);
  std::atomic<long long> exported{0};
  registry.RegisterCallback([&](std::vector<obs::Sample>& out) {
    out.push_back({"cb_live_total", "",
                   static_cast<double>(
                       exported.load(std::memory_order_relaxed)),
                   obs::MetricKind::kCounter, "h"});
  });

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::string text = registry.RenderPrometheus();
      EXPECT_NE(text.find("w_total"), std::string::npos);
      (void)registry.RenderJson();
      (void)registry.SampleValue("w_total", "");
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (long long i = 0; i < kPerWriter; ++i) {
        counter->Increment(w);
        hist->Record(i & 1023, w);
        exported.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(counter->Value(), kWriters * kPerWriter);
  const obs::HistogramSnapshot s = hist->Merge();
  EXPECT_EQ(s.count, kWriters * kPerWriter);
  EXPECT_DOUBLE_EQ(registry.SampleValue("w_total", ""),
                   static_cast<double>(kWriters * kPerWriter));
  EXPECT_DOUBLE_EQ(registry.SampleValue("cb_live_total", ""),
                   static_cast<double>(kWriters * kPerWriter));
}

}  // namespace
