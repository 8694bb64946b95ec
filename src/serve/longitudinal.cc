#include "serve/longitudinal.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/check.h"
#include "obs/span.h"

namespace ldpr::serve {

SnapshotDelta DiffSnapshots(const EstimateSnapshot& older,
                            const EstimateSnapshot& newer) {
  LDPR_REQUIRE(older.counts.size() == newer.counts.size(),
               "snapshot deltas need matching domains, got "
                   << older.counts.size() << " vs " << newer.counts.size());
  SnapshotDelta delta;
  delta.from_epoch = older.epoch;
  delta.to_epoch = newer.epoch;
  delta.count_delta.resize(newer.counts.size());
  for (std::size_t v = 0; v < newer.counts.size(); ++v) {
    delta.count_delta[v] = newer.counts[v] - older.counts[v];
  }
  if (!older.frequencies.empty() && !newer.frequencies.empty()) {
    delta.frequency_delta.resize(newer.frequencies.size());
    for (std::size_t v = 0; v < newer.frequencies.size(); ++v) {
      delta.frequency_delta[v] = newer.frequencies[v] - older.frequencies[v];
      delta.l1_drift += std::abs(delta.frequency_delta[v]);
    }
  }
  return delta;
}

LongitudinalCollector::LongitudinalCollector(
    const fo::FrequencyOracle& oracle, const LongitudinalOptions& options)
    : options_(options),
      collector_(oracle, options.collector),
      users_(options.user_shards) {
  window_counts_.assign(oracle.k(), 0);
  if (obs::MetricsRegistry* reg = options.collector.metrics) {
    obs_ = std::make_unique<Obs>();
    obs_->seal_seconds = reg->GetHistogram(
        "ldpr_seal_seconds", "", "Wall time of one epoch Seal()", 1,
        obs::HistogramUnit::kSeconds);
    obs_->window_update_seconds = reg->GetHistogram(
        "ldpr_window_update_seconds", "",
        "Wall time of the window count-delta slide inside Seal()", 1,
        obs::HistogramUnit::kSeconds);
    obs_->epoch_open =
        reg->GetGauge("ldpr_epoch_open", "", "1 while an epoch is ingesting");
    obs_->epoch_last_sealed = reg->GetGauge(
        "ldpr_epoch_last_sealed", "", "Id of the most recently sealed epoch");
    obs_->epoch_reports = reg->GetGauge(
        "ldpr_epoch_reports", "", "Accepted reports in the last sealed epoch");
    obs_->epsilon_epoch = reg->GetGauge(
        "ldpr_privacy_epsilon_epoch", "",
        "Realized epsilon of the last sealed epoch alone");
    obs_->epsilon_cumulative = reg->GetGauge(
        "ldpr_privacy_epsilon_cumulative", "",
        "Sequential-composition epsilon over every sealed epoch");
    obs_->epsilon_worst_user = reg->GetGauge(
        "ldpr_privacy_epsilon_worst_user", "",
        "Cumulative epsilon of the worst tracked user");
    obs_->epsilon_mean_user = reg->GetGauge(
        "ldpr_privacy_epsilon_mean_user", "",
        "Mean cumulative epsilon across tracked users");
    obs_->memoization_hit_rate = reg->GetGauge(
        "ldpr_privacy_memoization_hit_rate", "",
        "Fraction of accepted reports recognized as memoized replays");
    obs_->users = reg->GetGauge("ldpr_privacy_users", "",
                                "Distinct users ever classified");
    obs_->window_occupancy = reg->GetGauge(
        "ldpr_window_occupancy", "",
        "Epochs currently inside the sliding estimation window");
  }
}

long long LongitudinalCollector::OpenEpoch() {
  const long long epoch = next_epoch_.load(std::memory_order_relaxed);
  LDPR_REQUIRE(!open(), "cannot open an epoch while epoch "
                            << epoch - 1 << " is still ingesting");
  next_epoch_.store(epoch + 1, std::memory_order_relaxed);
  opened_at_ = MonotonicSeconds();
  if (obs_) obs_->epoch_open->Set(1);
  // Release: a producer that sees the epoch open also sees its id.
  open_.store(true, std::memory_order_release);
  return epoch;
}

Collector& LongitudinalCollector::collector() {
  LDPR_REQUIRE(open(), "ingest requires an open epoch (OpenEpoch first)");
  return collector_;
}

IngestResult LongitudinalCollector::Ingest(const IngestRequest& request) {
  // Lock-free early out for the between-epochs stream.
  if (!open()) {
    closed_epoch_rejects_.fetch_add(1, std::memory_order_relaxed);
    return IngestResult::Rejected(RejectReason::kClosedEpoch);
  }
  return collector_.IngestGated(request, [this](const IngestRequest& r) {
    return Gate(r);
  });
}

void LongitudinalCollector::IngestAll(IngestSource& source) {
  // Closed at the start of the chunk: the per-record path keeps the
  // lock-free early out (and admits again if an epoch opens mid-chunk).
  if (!open()) {
    IngestSink::IngestAll(source);
    return;
  }
  if (chunk_hook_) chunk_hook_();
  collector_.IngestAllGated(source, [this](const IngestRequest& r) {
    return Gate(r);
  });
}

RejectReason LongitudinalCollector::Gate(const IngestRequest& request) {
  // Runs under the lane mutex after frame validation. Seal() closes the
  // epoch before its Drain takes each lane mutex, so re-checking open_ here
  // puts a frame racing the seal either wholly in this epoch or into a
  // kClosedEpoch reject on the lane, which the next seal drains. Only then
  // one user-state lookup admits and classifies: a malformed or
  // closed-epoch frame spends no token, a refused one reaches no aggregator.
  if (!open()) return RejectReason::kClosedEpoch;
  if (!request.user.has_value() || !options_.track_users) {
    return RejectReason::kNone;
  }
  const long long epoch = next_epoch_.load(std::memory_order_relaxed) - 1;
  switch (users_.AdmitAndClassify(*request.user, request.now, request.frame,
                                  epoch, options_.memoized_replays_free,
                                  options_.one_report_per_epoch)) {
    case UserStateTable::FrameClass::kRateLimited:
      return RejectReason::kRateLimited;
    case UserStateTable::FrameClass::kDuplicate:
      return RejectReason::kDuplicate;
    default:
      return RejectReason::kNone;
  }
}

const EstimateSnapshot& LongitudinalCollector::Seal() {
  LDPR_REQUIRE(open(), "no open epoch to seal");
  obs::Span seal_span(obs_ ? obs_->seal_seconds.get() : nullptr);
  // Close before draining: from here on the gate refuses new frames, and
  // the drain below waits out any frame already admitted under a lane lock.
  open_.store(false, std::memory_order_release);
  const double seconds = MonotonicSeconds() - opened_at_;
  const fo::FrequencyOracle& oracle = collector_.oracle();
  Collector::Drained drained = collector_.Drain();

  EstimateSnapshot snapshot;
  snapshot.epoch = next_epoch_.load(std::memory_order_relaxed) - 1;
  snapshot.n = drained.n;
  snapshot.counts = std::move(drained.counts);
  if (drained.n > 0) {
    snapshot.frequencies =
        oracle.EstimateFromCounts(snapshot.counts, drained.n);
    snapshot.consistent = fo::MakeConsistent(
        snapshot.frequencies, collector_.options().consistency,
        collector_.options().consistency_threshold);
  }
  drained.tallies.closed_epoch +=
      closed_epoch_rejects_.exchange(0, std::memory_order_relaxed);
  snapshot.stats = IngestStats::From(drained.tallies, seconds);

  // Ledger: replays recognized by the table are charged 0; everything else
  // accepted this epoch (classified fresh or ingested without a user id) is
  // a fresh eps-LDP randomization of the one served attribute.
  const UserStateTable::EpochTallies tallies = users_.SealEpoch();
  const long long anonymous =
      drained.tallies.reports - tallies.fresh - tallies.memoized;
  LDPR_CHECK(anonymous >= 0, "user-state table classified more reports ("
                                 << tallies.fresh + tallies.memoized
                                 << ") than were accepted ("
                                 << drained.tallies.reports << ")");
  const long long epoch_fresh = tallies.fresh + anonymous;
  const double epsilon = oracle.epsilon();
  {
    privacy::Accountant epoch_ledger(/*d=*/1);
    epoch_ledger.RecordSmpBulk(0, epsilon, epoch_fresh);
    epoch_ledger.RecordMemoized(tallies.memoized);
    snapshot.ledger = epoch_ledger.MakeReport();
  }
  cumulative_fresh_ += epoch_fresh;
  cumulative_memoized_ += tallies.memoized;
  {
    // Rebuilt from integer totals every seal: one multiply, no accumulated
    // float-addition order dependence.
    privacy::Accountant cumulative(/*d=*/1);
    cumulative.RecordSmpBulk(0, epsilon, cumulative_fresh_);
    cumulative.RecordMemoized(cumulative_memoized_);
    cumulative_report_ = cumulative.MakeReport();
    const UserStateTable::UserStats stats = users_.Totals();
    cumulative_report_.users = stats.users;
    if (stats.users > 0) {
      // Per-user sequential totals over *tracked* users (anonymous ingest
      // has no user to attribute to).
      cumulative_report_.mean_user_epsilon =
          static_cast<double>(stats.total_fresh) /
          static_cast<double>(stats.users) * epsilon;
      cumulative_report_.max_user_epsilon =
          static_cast<double>(stats.max_fresh) * epsilon;
    }
  }
  snapshot.cumulative_ledger = cumulative_report_;

  // Window delta state: slide the tail, then emit the completed window (if
  // any) straight from the running sums.
  obs::Span window_span(obs_ ? obs_->window_update_seconds.get() : nullptr);
  tail_counts_.push_back(snapshot.counts);
  tail_n_.push_back(snapshot.n);
  for (std::size_t v = 0; v < window_counts_.size(); ++v) {
    window_counts_[v] += snapshot.counts[v];
  }
  window_n_ += snapshot.n;
  if (tail_counts_.size() > static_cast<std::size_t>(schedule().length())) {
    const std::vector<long long>& gone = tail_counts_.front();
    for (std::size_t v = 0; v < window_counts_.size(); ++v) {
      window_counts_[v] -= gone[v];
    }
    window_n_ -= tail_n_.front();
    tail_counts_.pop_front();
    tail_n_.pop_front();
  }
  const long long completed = schedule().CompletedWindow(snapshot.epoch);
  if (completed >= 0) {
    WindowSnapshot window;
    window.window = completed;
    window.first_epoch = schedule().FirstEpoch(completed);
    window.last_epoch = schedule().LastEpoch(completed);
    window.n = window_n_;
    window.counts = window_counts_;
    if (window_n_ > 0) {
      window.frequencies =
          oracle.EstimateFromCounts(window.counts, window_n_);
      window.consistent = fo::MakeConsistent(
          window.frequencies, collector_.options().consistency,
          collector_.options().consistency_threshold);
    }
    windows_.push_back(std::move(window));
    if (options_.history_cap > 0 && windows_.size() > options_.history_cap) {
      windows_.pop_front();
    }
  }

  window_span.Stop();

  history_.push_back(std::move(snapshot));
  if (options_.history_cap > 0 && history_.size() > options_.history_cap) {
    history_.pop_front();
  }
  const EstimateSnapshot& sealed = history_.back();
  if (obs_) {
    obs_->epoch_open->Set(0);
    obs_->epoch_last_sealed->Set(static_cast<double>(sealed.epoch));
    obs_->epoch_reports->Set(static_cast<double>(sealed.stats.reports));
    obs_->epsilon_epoch->Set(sealed.ledger.total_epsilon);
    obs_->epsilon_cumulative->Set(cumulative_report_.total_epsilon);
    obs_->epsilon_worst_user->Set(cumulative_report_.max_user_epsilon);
    obs_->epsilon_mean_user->Set(cumulative_report_.mean_user_epsilon);
    obs_->memoization_hit_rate->Set(cumulative_report_.MemoizationHitRate());
    obs_->users->Set(static_cast<double>(cumulative_report_.users));
    obs_->window_occupancy->Set(static_cast<double>(tail_counts_.size()));
  }
  return sealed;
}

}  // namespace ldpr::serve
