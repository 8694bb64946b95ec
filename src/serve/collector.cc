#include "serve/collector.h"

#include <algorithm>
#include <cstring>

#include "core/check.h"
#include "core/parallel.h"
#include "fo/bitslice.h"

namespace ldpr::serve {

Collector::Collector(const fo::FrequencyOracle& oracle,
                     const CollectorOptions& options)
    : oracle_(oracle), options_(options) {
  int lanes = options.lanes > 0 ? options.lanes : DefaultThreadCount();
  LDPR_CHECK(lanes >= 1, "collector needs at least one lane");
  report_bytes_ = fo::WireDecoder(oracle).report_bytes();
  stage_stride_ = fo::bitslice::RowStride(report_bytes_);
  const std::size_t staging_bytes =
      static_cast<std::size_t>(fo::bitslice::kBlockRows) * stage_stride_ +
      fo::bitslice::kRowTailSlack;
  lanes_.reserve(lanes);
  for (int i = 0; i < lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>(oracle, staging_bytes, i));
  }
  if (options.metrics) {
    obs_ = std::make_unique<Obs>();
    obs_->registry = options.metrics;
    obs_->decode_block_seconds = options.metrics->GetHistogram(
        "ldpr_decode_block_seconds", "",
        "Latency of one AccumulateWireBlock flush (up to kBlockRows rows)",
        lanes, obs::HistogramUnit::kSeconds);
    obs_->decode_block_rows = options.metrics->GetHistogram(
        "ldpr_decode_block_rows", "", "Rows decoded per block flush", lanes);
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

namespace {

// The bare collector's gate: no admission rule beyond validation.
constexpr auto kAdmitAll = [](const IngestRequest&) {
  return RejectReason::kNone;
};

}  // namespace

IngestResult Collector::Ingest(const IngestRequest& request) {
  return IngestGated(request, kAdmitAll);
}

void Collector::IngestAll(IngestSource& source) {
  IngestAllGated(source, kAdmitAll);
}

void Collector::FlushLocked(Lane& lane) {
  if (lane.staged == 0) return;
  const double start = obs_ ? MonotonicSeconds() : 0.0;
  lane.aggregator->AccumulateWireBlock(lane.staging.data(), stage_stride_,
                                       lane.staged);
  if (obs_) {
    obs_->decode_block_seconds->RecordSeconds(MonotonicSeconds() - start,
                                              lane.index);
    obs_->decode_block_rows->Record(lane.staged, lane.index);
  }
  lane.staged = 0;
}

IngestCounters Collector::TotalsNow() const {
  IngestCounters totals;
  {
    std::lock_guard<std::mutex> lock(drained_mutex_);
    totals = drained_totals_;
  }
  for (const auto& lane_ptr : lanes_) {
    const Lane& lane = *lane_ptr;
    std::lock_guard<std::mutex> guard(lane.mutex);
    totals.Merge(lane.tallies);
  }
  return totals;
}

int Collector::staged(int lane_hint) const {
  const Lane& lane = LaneFor(lane_hint);
  std::lock_guard<std::mutex> guard(lane.mutex);
  return lane.staged;
}

void Collector::IngestHistogram(int lane_hint,
                                const std::vector<long long>& histogram,
                                Rng& rng) {
  Lane& lane = LaneFor(lane_hint);
  std::lock_guard<std::mutex> guard(lane.mutex);
  const long long before = lane.aggregator->n();
  lane.aggregator->AccumulateHistogram(histogram, rng);
  const long long added = lane.aggregator->n() - before;
  lane.tallies.reports += added;
  lane.tallies.bytes += added * static_cast<long long>(report_bytes_);
}

Collector::Drained Collector::Drain() {
  const int lane_count = lanes();
  const int k = oracle_.k();
  Drained out;
  out.counts.assign(k, 0);
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
        for (long long li = lo; li < hi; ++li) {
          Lane& lane = *lanes_[static_cast<std::size_t>(li)];
          std::lock_guard<std::mutex> guard(lane.mutex);
          FlushLocked(lane);  // partial blocks are decoded at seal time
          const std::vector<long long>& counts = lane.aggregator->counts();
          for (int v = 0; v < k; ++v) p.counts[v] += counts[v];
          p.n += lane.aggregator->n();
          p.tallies.Merge(lane.tallies);
          lane.aggregator = oracle_.MakeAggregator();
          lane.tallies = IngestCounters{};
        }
      },
      shards);
  for (int s = 0; s < shards; ++s) {
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
