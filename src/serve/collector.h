#ifndef LDPR_SERVE_COLLECTOR_H_
#define LDPR_SERVE_COLLECTOR_H_

// The streaming collection service's ingest core.
//
// The paper's deployment surface is a server continuously receiving
// wire-encoded sanitized reports from millions of users. A Collector models
// exactly that for one attribute: producers push raw report buffers into
// lock-striped lanes (serve/lanes.h), each lane owning its own
// fo::Aggregator, fo::WireDecoder scratch and IngestCounters, so concurrent
// producers that shard themselves over lanes never contend. Sealing an epoch
// merges the lane aggregators (O(lanes * k), constant in the number of
// reports) into an immutable EstimateSnapshot.
//
// Ingest is staged, not scalar: each lane validates an incoming buffer
// (fo::WireDecoder::Validate — same accept set as the scalar decoder) and
// hands it to its aggregator's fo::Aggregator::AccumulateFrame, which copies
// it into the aggregator's staging block of bitslice::kBlockRows padded rows
// and defers all decode work to the protocol's AccumulateWireBlock kernel:
// once when the block fills and once more at Drain() for the partial block
// (flush-on-seal) — so a sealed epoch always covers every accepted report,
// wherever the block boundary fell.
//
// Determinism: block kernels are pinned bit-identical to the scalar decode
// path (fo_bitslice_exact_test) and merged support counts are integer sums,
// so the sealed snapshot depends only on the multiset of accepted reports —
// never on lane assignment, producer interleaving, LDPR_THREADS, or where
// the flush boundaries fell (serve_collector_test pins this, and pins
// snapshot estimates bit-identical to a batch fo::Aggregator fed the same
// report stream).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/stats.h"
#include "fo/consistency.h"
#include "fo/frequency_oracle.h"
#include "fo/wire.h"
#include "obs/metrics.h"
#include "privacy/accountant.h"
#include "serve/ingest.h"
#include "serve/lanes.h"

namespace ldpr::serve {

struct CollectorOptions {
  /// Number of lock-striped ingest lanes; 0 = one per worker thread
  /// (core DefaultThreadCount). Lane count never affects sealed results.
  int lanes = 0;
  /// Post-processing applied to the snapshot's `consistent` estimate.
  fo::ConsistencyMethod consistency = fo::ConsistencyMethod::kNormSub;
  double consistency_threshold = 0.0;
  /// Telemetry sink; nullptr disables instrumentation entirely (the
  /// default, so benchmarks and tests that don't scrape pay nothing).
  /// When set, the collector exports its lane tallies as
  /// `ldpr_ingest_*` counters via a scrape callback — the per-report fast
  /// path is untouched; the tallies it already maintains ARE the sharded
  /// cells — and records decode-block latency/occupancy histograms (one
  /// sample per block decode: each full kBlockRows block and each partial
  /// block decoded at seal, never per report).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Per-epoch ingest statistics, frozen into the snapshot at seal time: the
/// epoch's drained lane tallies (admission-control rejects stay zero on
/// surfaces without that stage) plus its wall time.
struct IngestStats : IngestCounters {
  double seconds = 0.0;             ///< epoch open -> seal wall time
  double reports_per_second = 0.0;  ///< reports / seconds (0 if degenerate)

  static IngestStats From(const IngestCounters& tallies, double seconds) {
    return {tallies, seconds,
            seconds > 0.0 ? static_cast<double>(tallies.reports) / seconds
                          : 0.0};
  }
};

/// Immutable estimate of one sealed epoch.
struct EstimateSnapshot {
  long long epoch = -1;
  long long n = 0;                  ///< accepted reports in the epoch
  std::vector<long long> counts;    ///< merged support counts, size k
  std::vector<double> frequencies;  ///< raw Eq. (2) estimate
  std::vector<double> consistent;   ///< consistency post-processed estimate
  IngestStats stats;
  /// Realized budget of this epoch alone: fresh randomizations charged eps,
  /// recognized replays charged 0 (filled at seal by the longitudinal
  /// pipeline's replay classification).
  privacy::LedgerReport ledger;
  /// Sequential composition over every epoch sealed so far, this one
  /// included.
  privacy::LedgerReport cumulative_ledger;
};

/// The bare collector's gate: no admission rule beyond validation.
inline constexpr auto kAdmitAll = [](const IngestRequest&) {
  return RejectReason::kNone;
};

/// Lock-striped ingest state for one frequency oracle. The oracle must
/// outlive the collector.
class Collector final : public IngestSink {
 public:
  explicit Collector(const fo::FrequencyOracle& oracle,
                     const CollectorOptions& options = {});
  ~Collector() override;

  /// Validates one wire-encoded report into lane `request.lane % lanes()`
  /// and stages it for that lane's aggregator. Thread-safe; producers that
  /// use distinct lanes never contend. A malformed frame comes back
  /// kMalformed (counted, nothing accumulated); the bare Collector imposes
  /// no other admission rule, so request.user is accepted unclassified.
  IngestResult Ingest(const IngestRequest& request) override {
    return IngestGated(request, kAdmitAll);
  }

  /// Ingest with an admission gate: `gate(request)` runs under the lane
  /// mutex after frame validation and before staging, returning the
  /// RejectReason to refuse with (kNone admits). Validation first means a
  /// malformed frame is always kMalformed, whatever the gate would say; the
  /// gate running pre-staging means a refused frame never reaches an
  /// aggregator. This is the extension point the longitudinal pipeline's
  /// duplicate classification plugs into; gates must not touch this lane
  /// (the mutex is held) and must order any locks of their own after it.
  template <typename Gate>
  IngestResult IngestGated(const IngestRequest& request, Gate&& gate) {
    return lanes_.Ingest(request, [&](Lane& lane, const IngestRequest& r) {
      return IngestLocked(lane, r, gate);
    });
  }

  /// Ingests every request of `source` (no gate). Same results as Ingest
  /// per request; see IngestAllGated.
  void IngestAll(IngestSource& source) override {
    IngestAllGated(source, kAdmitAll);
  }

  /// IngestGated over a whole source: LaneSet::IngestAll runs the same
  /// validate -> gate -> stage body per request, one lane mutex per run of
  /// same-lane requests, so a racing Drain waits for that run to end.
  template <typename Gate>
  void IngestAllGated(IngestSource& source, Gate&& gate) {
    lanes_.IngestAll(source, [&](Lane& lane, const IngestRequest& r) {
      return IngestLocked(lane, r, gate);
    });
  }

  /// Closed-form lane feed for the fast simulation profile: draws the
  /// aggregate support counts of `histogram` directly into lane
  /// `lane % lanes()` (fo::Aggregator::AccumulateHistogram), bypassing the
  /// wire. Counted as histogram-total reports of report_bytes() each.
  void IngestHistogram(int lane, const std::vector<long long>& histogram,
                       Rng& rng);

  /// Sums every lane's counts/tallies and resets the lanes for the next
  /// epoch. O(lanes * k). Used by EpochManager::Seal; exposed for tests.
  struct Drained {
    std::vector<long long> counts;
    long long n = 0;
    IngestCounters tallies;
  };
  Drained Drain();

  /// Lifetime ingest totals: everything drained in past epochs plus the
  /// live lane tallies right now. This is what the telemetry callback
  /// exports, so a scrape mid-epoch is exact (briefly takes each lane
  /// mutex) and a scrape after the last seal equals the sum of all sealed
  /// snapshots' IngestCounters.
  IngestCounters TotalsNow() const;

  int lanes() const { return lanes_.size(); }
  /// The exact buffer size Ingest accepts (WireDecoder::report_bytes).
  std::size_t report_bytes() const { return report_bytes_; }
  const fo::FrequencyOracle& oracle() const { return oracle_; }
  const CollectorOptions& options() const { return options_; }

  /// Rows currently staged (validated, not yet decoded) in lane
  /// `lane % lanes()`. Exposed for flush-boundary tests.
  int staged(int lane) const;

 private:
  /// A lane's own state (serve::Lane adds the mutex and tallies).
  struct LaneState {
    explicit LaneState(const fo::FrequencyOracle& oracle)
        : aggregator(oracle.MakeAggregator()), decoder(oracle) {}

    /// Stages and decodes the lane's frames; lives as long as the lane
    /// (Drain resets it), so its staging block is allocated once.
    std::unique_ptr<fo::Aggregator> aggregator;
    fo::WireDecoder decoder;
  };
  using Lane = serve::Lane<LaneState>;

  /// The one validate -> gate -> stage body behind IngestGated and
  /// IngestAllGated. Caller holds the lane mutex.
  template <typename Gate>
  IngestResult IngestLocked(Lane& lane, const IngestRequest& request,
                            Gate& gate) {
    if (!lane.decoder.Validate(request.frame)) {
      return lane.Reject(RejectReason::kMalformed);
    }
    const RejectReason verdict = gate(request);
    if (verdict != RejectReason::kNone) return lane.Reject(verdict);
    // Stage the admitted frame: the aggregator's block kernel decodes it
    // when the block fills or the epoch seals.
    lane.aggregator->AccumulateFrame(request.frame);
    return lane.Accept(request.frame.size());
  }

  const fo::FrequencyOracle& oracle_;
  CollectorOptions options_;
  std::size_t report_bytes_;
  LaneSet<LaneState> lanes_;

  /// Tallies of every past Drain() (Drain resets the lanes, so lifetime
  /// totals have to accumulate somewhere for mid-run scrapes).
  mutable std::mutex drained_mutex_;
  IngestCounters drained_totals_;

  /// Set iff options.metrics != nullptr.
  struct Obs {
    obs::MetricsRegistry* registry = nullptr;
    std::shared_ptr<obs::Histogram> decode_block_seconds;
    std::shared_ptr<obs::Histogram> decode_block_rows;
    long long callback_id = 0;
  };
  std::unique_ptr<Obs> obs_;
};

// The epoch lifecycle (EpochManager) lives in serve/longitudinal.h: it is a
// LongitudinalCollector on the fixed one-epoch schedule.

}  // namespace ldpr::serve

#endif  // LDPR_SERVE_COLLECTOR_H_
