// Telemetry subsystem: a process-wide registry of named counters, gauges,
// and log-linear latency/size histograms, designed so that instrumented hot
// paths never contend. Two acquisition styles coexist:
//
//  * Owned instruments (Counter / Gauge / Histogram) hold cache-line-aligned
//    per-shard cells updated with relaxed atomics. Writers pick a shard (the
//    collector uses its lane index, the server its reactor index) so
//    cells are effectively single-writer; shards are merged only at scrape
//    time, exactly like `fo::Aggregator` shards are merged at Drain().
//  * Scrape callbacks export state a component already tracks — the
//    collector's per-lane IngestCounters tallies, the server's session
//    totals. The per-report ingest fast path therefore carries zero added
//    atomics: the tallies it was already writing ARE the sharded cells, and
//    the registry sums them only when someone scrapes.
//
// Exposition: RenderPrometheus() emits Prometheus text format 0.0.4 (served
// by the IngestServer admin listener), RenderJson() a snapshot for
// `ldpr_cli metrics` and `serve-demo --metrics-every N`.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ldpr::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

// Unit of histogram samples; controls how bucket edges are rendered.
// kSeconds histograms record integer nanoseconds internally and expose
// bucket edges / sums in seconds (the Prometheus convention).
enum class HistogramUnit { kNone, kSeconds };

// A monotonically increasing count, sharded to keep concurrent writers on
// separate cache lines. Merged (summed) only when read.
class Counter {
 public:
  explicit Counter(int shards);
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(long long delta, int shard = 0) {
    cells_[static_cast<unsigned>(shard) % nshards_].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  void Increment(int shard = 0) { Add(1, shard); }

  long long Value() const;
  int shards() const { return static_cast<int>(nshards_); }

 private:
  struct alignas(64) Cell {
    std::atomic<long long> v{0};
  };
  std::unique_ptr<Cell[]> cells_;
  unsigned nshards_;
};

// A point-in-time value (epoch id, cumulative epsilon, live connections).
// Single logical writer; readers see the latest store.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Merged view of a histogram at one instant.
struct HistogramSnapshot {
  std::vector<long long> buckets;  // per-bucket counts (not cumulative)
  long long count = 0;
  long long sum = 0;  // sum of recorded values (ns for kSeconds histograms)

  // Upper edge of the bucket containing the p-th percentile sample
  // (p in [0, 100]). Returns 0 for an empty histogram.
  long long ValueAtPercentile(double p) const;
  long long Max() const;  // upper edge of the highest occupied bucket
};

// HdrHistogram-style log-linear histogram over non-negative integer values.
// Layout: values [0, 16) get unit-width buckets; above that each power-of-two
// octave is split into 8 sub-buckets, bounding relative error at 12.5%.
// Values are clamped to [0, 2^62); negative samples land in bucket 0.
// Recording is one relaxed fetch_add per field on the caller's shard —
// callers on distinct shards never share a cache line.
class Histogram {
 public:
  static constexpr int kSubBucketBits = 4;
  static constexpr int kSubBucketCount = 1 << kSubBucketBits;  // 16
  static constexpr int kSubBucketHalf = kSubBucketCount / 2;   // 8
  static constexpr int kOctaves = 58;
  static constexpr int kBucketCount =
      kSubBucketCount + kOctaves * kSubBucketHalf;  // 480

  static int BucketIndex(long long value) {
    if (value < kSubBucketCount)
      return value < 0 ? 0 : static_cast<int>(value);
    const auto v = static_cast<unsigned long long>(value);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBucketBits + 1;
    if (shift > kOctaves) return kBucketCount - 1;
    const int top = static_cast<int>(v >> shift);  // in [8, 16)
    return kSubBucketCount + (shift - 1) * kSubBucketHalf +
           (top - kSubBucketHalf);
  }

  // Smallest value that lands in bucket `index`; the bucket covers
  // [BucketLowerBound(i), BucketLowerBound(i + 1)) except the last, which
  // absorbs everything upward.
  static long long BucketLowerBound(int index) {
    if (index <= 0) return 0;
    if (index >= kBucketCount) index = kBucketCount - 1;
    if (index < kSubBucketCount) return index;
    const int shift = (index - kSubBucketCount) / kSubBucketHalf + 1;
    const int rem = (index - kSubBucketCount) % kSubBucketHalf;
    return static_cast<long long>(kSubBucketHalf + rem) << shift;
  }

  explicit Histogram(int shards);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(long long value, int shard = 0) {
    Shard& s = shards_[static_cast<unsigned>(shard) % nshards_];
    s.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
  }
  // Records a duration as integer nanoseconds.
  void RecordSeconds(double seconds, int shard = 0) {
    Record(static_cast<long long>(seconds * 1e9 + 0.5), shard);
  }

  HistogramSnapshot Merge() const;
  int shards() const { return static_cast<int>(nshards_); }

 private:
  struct Shard {
    std::atomic<long long> buckets[kBucketCount];
    alignas(64) std::atomic<long long> count;
    std::atomic<long long> sum;
  };
  std::unique_ptr<Shard[]> shards_;
  unsigned nshards_;
};

// One exported value. `labels` is the inner label text without braces, e.g.
// `reason="duplicate"`, or empty for an unlabeled series.
struct Sample {
  std::string name;
  std::string labels;
  double value = 0.0;
  MetricKind kind = MetricKind::kCounter;
  std::string help;
};

// Called at scrape time to export component-owned state (e.g. the
// collector's lane tallies). Appends samples to `out`; must be safe to call
// from any thread (the registry serializes scrapes).
using ScrapeCallback = std::function<void(std::vector<Sample>& out)>;

// Process-wide (or test-local) registry. GetX() is idempotent: asking for an
// existing (name, labels) pair returns the same instrument, so components
// can be constructed in any order. All methods are thread-safe.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  std::shared_ptr<Counter> GetCounter(const std::string& name,
                                      const std::string& labels,
                                      const std::string& help, int shards = 1);
  std::shared_ptr<Gauge> GetGauge(const std::string& name,
                                  const std::string& labels,
                                  const std::string& help);
  std::shared_ptr<Histogram> GetHistogram(
      const std::string& name, const std::string& labels,
      const std::string& help, int shards = 1,
      HistogramUnit unit = HistogramUnit::kNone);

  // Registers a scrape-time exporter; returns a handle for Unregister.
  // Counter samples with the same (name, labels) from different callbacks
  // are summed; gauge samples overwrite.
  long long RegisterCallback(ScrapeCallback fn);
  void UnregisterCallback(long long id);

  // Prometheus text exposition format 0.0.4.
  std::string RenderPrometheus() const;
  // Compact JSON snapshot (histograms as count/sum/percentiles).
  std::string RenderJson() const;

  // Merged value of one counter/gauge series (owned or callback-exported).
  // Returns 0 if the series does not exist.
  double SampleValue(const std::string& name, const std::string& labels) const;

 private:
  struct Instrument {
    MetricKind kind;
    std::string help;
    HistogramUnit unit = HistogramUnit::kNone;
    std::shared_ptr<Counter> counter;
    std::shared_ptr<Gauge> gauge;
    std::shared_ptr<Histogram> histogram;
  };
  using Key = std::pair<std::string, std::string>;  // (name, labels)

  // Flattened scrape state shared by the renderers.
  struct Series {
    MetricKind kind;
    std::string help;
    HistogramUnit unit = HistogramUnit::kNone;
    double value = 0.0;               // counter / gauge
    HistogramSnapshot histogram;      // histogram only
  };
  std::map<Key, Series> Collect() const;

  mutable std::mutex mutex_;
  std::map<Key, Instrument> instruments_;
  std::map<long long, ScrapeCallback> callbacks_;
  long long next_callback_id_ = 1;
};

}  // namespace ldpr::obs
