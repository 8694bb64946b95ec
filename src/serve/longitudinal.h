#ifndef LDPR_SERVE_LONGITUDINAL_H_
#define LDPR_SERVE_LONGITUDINAL_H_

// Longitudinal collection pipeline: the cross-epoch state the paper's
// Section 6 is about, layered over the per-epoch Collector.
//
// A LongitudinalCollector owns one Collector (the lock-striped per-epoch
// lanes) plus everything that survives a seal:
//
//   * an EpochSchedule mapping epochs onto fixed/sliding/overlapping
//     estimation windows, maintained as a running integer count delta (the
//     newest epoch added, the one sliding out subtracted): a window seal is
//     O(k) and bit-identical to a recompute (serve_longitudinal_test);
//   * the per-user state table (serve/user_state.h): an accepted attributed
//     frame the user already sent is a memoized replay of a RAPPOR-style
//     permanent answer — it still counts toward the estimate (the server
//     cannot tell a replay apart statistically, only ledger-wise) but is
//     charged eps = 0;
//   * per-shard privacy ledgers, merged at seal through privacy::Accountant
//     into the per-epoch and cumulative LedgerReport exposed on every
//     EstimateSnapshot. Ledgers are kept as integer fresh/memoized tallies
//     and converted to eps by one bulk multiply at seal, so the reported
//     budgets are exact and LDPR_THREADS/lane-count independent.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "core/check.h"
#include "serve/collector.h"
#include "serve/epoch_schedule.h"
#include "serve/user_state.h"

namespace ldpr::serve {

struct LongitudinalOptions {
  EpochSchedule schedule = EpochSchedule::Fixed(1);
  CollectorOptions collector;
  /// Maximum sealed epochs (and completed windows) retained; older entries
  /// are evicted oldest-first. 0 = unbounded (the legacy behavior; sealed
  /// snapshot references then stay valid for the collector's lifetime).
  std::size_t history_cap = 0;
  /// Classify attributed frames through the user-state table. Off, every
  /// accepted report is charged fresh and user_state() is nullptr.
  bool track_users = true;
  /// Charge recognized replays eps = 0. Sound only when clients follow the
  /// memoization contract: an identical frame then is a replayed permanent
  /// answer, not an accidental collision of a fresh randomization (for
  /// low-entropy frames like GRR's the server cannot tell the two apart).
  /// Off — a deployment whose clients do not memoize — every accepted
  /// report is charged fresh while per-user totals are still tracked, so
  /// the cumulative budget grows exactly linearly in the rounds.
  bool memoized_replays_free = true;
  /// Shard count of the user-state table. Fixed (not tied to lanes or
  /// threads) so ledger tallies merge identically under any LDPR_THREADS.
  int user_shards = kDefaultUserShards;
  /// Enforce the paper's collection contract server-side: a user's second
  /// report within one epoch is rejected kDuplicate (counted, never
  /// aggregated). The same frame in a LATER epoch is still a memoized
  /// replay, and anonymous frames are never subject to the check. Off, the
  /// legacy behavior: every accepted frame aggregates, replays only affect
  /// the ledger.
  bool one_report_per_epoch = true;

  /// The one place CollectorOptions embeds into LongitudinalOptions
  /// (EpochManager and the CLI both construct through here). Copies the
  /// whole struct, so a new CollectorOptions field can never silently
  /// default — the sizeof tripwire below forces a look at this function
  /// whenever the struct grows.
  static LongitudinalOptions FromCollector(const CollectorOptions& collector) {
    static_assert(sizeof(CollectorOptions) ==
                      sizeof(int) + sizeof(fo::ConsistencyMethod) +
                          sizeof(double) + sizeof(obs::MetricsRegistry*),
                  "CollectorOptions changed shape: confirm "
                  "LongitudinalOptions::FromCollector (whole-struct copy) "
                  "still covers every field, then update this tripwire");
    LongitudinalOptions out;
    out.collector = collector;
    return out;
  }
};

/// One completed estimation window: the union of `length` consecutive
/// epochs' accepted reports, estimated with the same Eq. (2) + consistency
/// arithmetic as a single epoch.
struct WindowSnapshot {
  long long window = -1;
  long long first_epoch = 0;
  long long last_epoch = 0;
  long long n = 0;                  ///< accepted reports across the window
  std::vector<long long> counts;    ///< summed support counts, size k
  std::vector<double> frequencies;  ///< raw Eq. (2) estimate
  std::vector<double> consistent;   ///< consistency post-processed estimate
};

/// Count/frequency difference between two sealed epochs (newer - older).
struct SnapshotDelta {
  long long from_epoch = -1;
  long long to_epoch = -1;
  std::vector<long long> count_delta;
  /// Element-wise frequency difference; empty when either epoch was empty.
  std::vector<double> frequency_delta;
  /// L1 norm of frequency_delta: the drift magnitude between the epochs.
  double l1_drift = 0.0;
};

SnapshotDelta DiffSnapshots(const EstimateSnapshot& older,
                            const EstimateSnapshot& newer);

/// Epoch/round lifecycle plus cross-epoch state over one Collector:
/// open -> ingest -> seal -> {epoch snapshot, completed window, ledgers}.
class LongitudinalCollector final : public IngestSink {
 public:
  explicit LongitudinalCollector(const fo::FrequencyOracle& oracle,
                                 const LongitudinalOptions& options = {});

  /// Opens the next epoch; requires the previous one to be sealed.
  /// Returns the new epoch id (0, 1, ...).
  long long OpenEpoch();

  bool open() const { return open_.load(std::memory_order_acquire); }

  /// The live collector producers ingest into; requires an open epoch.
  /// Reports ingested directly (without a user id) are charged as fresh.
  Collector& collector();

  /// Ingests one wire frame. A valid attributed frame (track_users on) goes
  /// through UserStateTable::AdmitAndClassify under the lane mutex: over
  /// rate (request.now set, admission armed) it is kRateLimited, a second
  /// report in the epoch kDuplicate (one_report_per_epoch), a frame from an
  /// earlier epoch a memoized replay (charged eps = 0), else fresh. With no
  /// epoch open every request is rejected kClosedEpoch (counted into the
  /// NEXT sealed epoch's stats) — never thrown, so a socket transport can
  /// keep draining between epochs. Safe to call concurrently with Seal()
  /// and OpenEpoch(): whether a frame belongs to the sealing epoch is
  /// decided under its lane mutex, which the seal's drain also takes.
  IngestResult Ingest(const IngestRequest& request) override;

  /// Ingest over a whole source, one lane mutex per run of same-lane
  /// requests (Collector::IngestAllGated). The gate still runs per request,
  /// so a racing Seal() waits for at most the run in progress, and each
  /// frame is either in the sealing epoch or a kClosedEpoch reject.
  void IngestAll(IngestSource& source) override;

  /// The table attributed requests are admitted and classified through;
  /// nullptr with track_users off.
  UserStateTable* user_state() override {
    return options_.track_users ? &users_ : nullptr;
  }

  /// Test-only: runs `hook` in IngestAll between the chunk's open() check
  /// and its lane lock. Set it before any producer starts.
  void SetChunkHookForTesting(std::function<void()> hook) {
    chunk_hook_ = std::move(hook);
  }

  /// Seals the open epoch: merges the lanes, estimates (raw + consistency
  /// post-processing), merges the user-state ledgers into the epoch's and
  /// the cumulative LedgerReport, slides the window, and archives the
  /// snapshot, in O(lanes * k + user_shards). The epoch closes before the
  /// lanes drain, so a frame racing the seal is either in this epoch or a
  /// kClosedEpoch reject. The returned reference stays valid until
  /// history_cap evictions (forever when the cap is 0). Seal() and
  /// OpenEpoch() must be called from one thread at a time.
  const EstimateSnapshot& Seal();

  /// Sealed epochs, oldest first (bounded by history_cap).
  const std::deque<EstimateSnapshot>& snapshots() const { return history_; }
  /// Completed estimation windows, oldest first (bounded by history_cap).
  const std::deque<WindowSnapshot>& windows() const { return windows_; }
  /// The cumulative ledger of the last sealed epoch (empty before one).
  const privacy::LedgerReport& cumulative_ledger() const {
    return cumulative_report_;
  }

  const EpochSchedule& schedule() const { return options_.schedule; }
  const LongitudinalOptions& options() const { return options_; }
  const fo::FrequencyOracle& oracle() const { return collector_.oracle(); }
  /// Static wire config — readable with or without an open epoch.
  std::size_t report_bytes() const { return collector_.report_bytes(); }
  int lanes() const { return collector_.lanes(); }

 private:
  /// The admission gate behind Ingest and IngestAll (runs under the lane
  /// mutex): closed-epoch re-check, then admission and classification.
  RejectReason Gate(const IngestRequest& request);

  LongitudinalOptions options_;
  Collector collector_;
  UserStateTable users_;
  std::function<void()> chunk_hook_;
  std::deque<EstimateSnapshot> history_;
  std::deque<WindowSnapshot> windows_;

  // Window delta state: support counts of the last <= length epochs and
  // their running sum (integer-exact, so no drift accumulates).
  std::deque<std::vector<long long>> tail_counts_;
  std::deque<long long> tail_n_;
  std::vector<long long> window_counts_;
  long long window_n_ = 0;

  // Cumulative ledger state, kept as integers until report time.
  long long cumulative_fresh_ = 0;
  long long cumulative_memoized_ = 0;
  privacy::LedgerReport cumulative_report_;

  /// Set iff options.collector.metrics != nullptr: seal / window-delta
  /// latency histograms plus the per-epoch ledger gauges (cumulative and
  /// worst-user epsilon, memoization hit rate) refreshed at every Seal().
  struct Obs {
    std::shared_ptr<obs::Histogram> seal_seconds;
    std::shared_ptr<obs::Histogram> window_update_seconds;
    std::shared_ptr<obs::Gauge> epoch_open;
    std::shared_ptr<obs::Gauge> epoch_last_sealed;
    std::shared_ptr<obs::Gauge> epoch_reports;
    std::shared_ptr<obs::Gauge> epsilon_epoch;
    std::shared_ptr<obs::Gauge> epsilon_cumulative;
    std::shared_ptr<obs::Gauge> epsilon_worst_user;
    std::shared_ptr<obs::Gauge> epsilon_mean_user;
    std::shared_ptr<obs::Gauge> memoization_hit_rate;
    std::shared_ptr<obs::Gauge> users;
    std::shared_ptr<obs::Gauge> window_occupancy;
  };
  std::unique_ptr<Obs> obs_;

  // Read by producers without a lock; the lane mutex orders them against
  // Seal()'s drain (see Ingest).
  std::atomic<bool> open_{false};
  std::atomic<long long> next_epoch_{0};
  double opened_at_ = 0.0;
  /// kClosedEpoch rejects since the last seal (they arrive outside any
  /// epoch, so they fold into the next sealed snapshot's stats).
  std::atomic<long long> closed_epoch_rejects_{0};
};

/// Legacy epoch lifecycle: open -> ingest -> seal -> snapshot with every
/// epoch its own window. Kept as the ergonomic front door for callers that
/// seal independent rounds; the longitudinal state (ledgers, windows,
/// user-state table) is reachable through longitudinal().
class EpochManager {
 public:
  explicit EpochManager(const fo::FrequencyOracle& oracle,
                        const CollectorOptions& options = {})
      : longitudinal_(oracle, LongitudinalOptions::FromCollector(options)) {}
  EpochManager(const fo::FrequencyOracle& oracle,
               const LongitudinalOptions& options)
      : longitudinal_(oracle, options) {}

  long long OpenEpoch() { return longitudinal_.OpenEpoch(); }
  bool open() const { return longitudinal_.open(); }
  Collector& collector() { return longitudinal_.collector(); }
  const EstimateSnapshot& Seal() { return longitudinal_.Seal(); }
  const std::deque<EstimateSnapshot>& snapshots() const {
    return longitudinal_.snapshots();
  }
  const fo::FrequencyOracle& oracle() const { return longitudinal_.oracle(); }
  std::size_t report_bytes() const { return longitudinal_.report_bytes(); }
  int lanes() const { return longitudinal_.lanes(); }

  LongitudinalCollector& longitudinal() { return longitudinal_; }
  const LongitudinalCollector& longitudinal() const { return longitudinal_; }

 private:
  LongitudinalCollector longitudinal_;
};

}  // namespace ldpr::serve

#endif  // LDPR_SERVE_LONGITUDINAL_H_
