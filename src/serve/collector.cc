#include "serve/collector.h"

#include <algorithm>
#include <numeric>

#include "core/parallel.h"

namespace ldpr::serve {

Collector::Collector(const fo::FrequencyOracle& oracle,
                     const CollectorOptions& options)
    : oracle_(oracle),
      options_(options),
      report_bytes_(fo::WireDecoder(oracle).report_bytes()),
      lanes_(options.lanes,
             [&oracle] { return std::make_unique<Lane>(oracle); }) {
  if (options.metrics) {
    obs_ = std::make_unique<Obs>();
    obs_->registry = options.metrics;
    obs_->decode_block_seconds = options.metrics->GetHistogram(
        "ldpr_decode_block_seconds", "",
        "Latency of one AccumulateWireBlock flush (up to kBlockRows rows)",
        lanes(), obs::HistogramUnit::kSeconds);
    obs_->decode_block_rows = options.metrics->GetHistogram(
        "ldpr_decode_block_rows", "", "Rows decoded per block flush", lanes());
    // Each lane's aggregator reports its own block decodes, on the lane's
    // own histogram shard so lanes never share a histogram cache line.
    for (int i = 0; i < lanes(); ++i) {
      lanes_.For(i).aggregator->ObserveDecodes(
          [seconds = obs_->decode_block_seconds,
           rows = obs_->decode_block_rows, i](int decoded, double elapsed) {
            seconds->RecordSeconds(elapsed, i);
            rows->Record(decoded, i);
          });
    }
    // The ingest counters are exported at scrape time from the tallies the
    // lanes maintain anyway — the per-report path carries no extra work.
    obs_->callback_id = options.metrics->RegisterCallback(
        [this](std::vector<obs::Sample>& out) {
          const IngestCounters totals = TotalsNow();
          out.push_back({"ldpr_ingest_reports_total", "",
                         static_cast<double>(totals.reports),
                         obs::MetricKind::kCounter,
                         "Reports decoded and accumulated"});
          out.push_back({"ldpr_ingest_bytes_total", "",
                         static_cast<double>(totals.bytes),
                         obs::MetricKind::kCounter,
                         "Wire bytes consumed by accepted reports"});
          ForEachRejectField(totals, [&out](const char* name,
                                            long long value) {
            out.push_back({"ldpr_ingest_rejects_total",
                           std::string("reason=\"") + name + "\"",
                           static_cast<double>(value),
                           obs::MetricKind::kCounter,
                           "Reports refused, by reject reason"});
          });
        });
  }
}

Collector::~Collector() {
  if (obs_) obs_->registry->UnregisterCallback(obs_->callback_id);
}

IngestCounters Collector::TotalsNow() const {
  std::unique_lock<std::mutex> lock(drained_mutex_);
  IngestCounters totals = drained_totals_;
  lock.unlock();
  for (int i = 0; i < lanes(); ++i) {
    Lane& lane = lanes_.For(i);
    std::lock_guard<std::mutex> guard(lane.mutex);
    totals.Merge(lane.tallies);
  }
  return totals;
}

int Collector::staged(int lane_hint) const {
  Lane& lane = lanes_.For(lane_hint);
  std::lock_guard<std::mutex> guard(lane.mutex);
  return lane.aggregator->staged();
}

void Collector::IngestHistogram(int lane_hint,
                                const std::vector<long long>& histogram,
                                Rng& rng) {
  Lane& lane = lanes_.For(lane_hint);
  std::lock_guard<std::mutex> guard(lane.mutex);
  lane.aggregator->AccumulateHistogram(histogram, rng);
  // The histogram total, not an n() difference: reading n() would decode
  // the staged partial block early, as an extra decode-block sample.
  const long long added =
      std::accumulate(histogram.begin(), histogram.end(), 0LL);
  lane.tallies.reports += added;
  lane.tallies.bytes += added * static_cast<long long>(report_bytes_);
}

Collector::Drained Collector::Drain() {
  const int lane_count = lanes();
  const int k = oracle_.k();
  // The O(lanes * k) merge (plus each lane's final partial-block decode)
  // fans over worker threads once it dwarfs a thread spawn; small seals
  // stay single-threaded microsecond work. Each shard drains a disjoint
  // lane range into its own partials, and both the per-shard lane loop and
  // the shard-ordered reduction below are integer sums — bit-identical for
  // any shard count, and therefore any LDPR_THREADS.
  const int max_shards = std::min(lane_count, DefaultThreadCount());
  const bool heavy =
      static_cast<long long>(lane_count) * k >= (1LL << 15);
  const int shards = (heavy && max_shards > 1) ? max_shards : 1;
  std::vector<Drained> partial(shards);
  ParallelForShards(
      lane_count, shards,
      [&](int shard, long long lo, long long hi) {
        Drained& p = partial[shard];
        p.counts.assign(k, 0);
        auto drain = [&](Lane& lane) {
          // The first read decodes the partial block.
          const std::vector<long long>& counts = lane.aggregator->counts();
          for (int v = 0; v < k; ++v) p.counts[v] += counts[v];
          p.n += lane.aggregator->n();
          lane.aggregator->Reset();
        };
        p.tallies = lanes_.Drain(drain, static_cast<int>(lo),
                                 static_cast<int>(hi));
      },
      shards);
  Drained out = std::move(partial[0]);
  for (int s = 1; s < shards; ++s) {
    for (int v = 0; v < k; ++v) out.counts[v] += partial[s].counts[v];
    out.n += partial[s].n;
    out.tallies.Merge(partial[s].tallies);
  }
  {
    // Draining resets the lanes, so fold the epoch's tallies into the
    // lifetime totals mid-run scrapes read (TotalsNow).
    std::lock_guard<std::mutex> lock(drained_mutex_);
    drained_totals_.Merge(out.tallies);
  }
  return out;
}

}  // namespace ldpr::serve
