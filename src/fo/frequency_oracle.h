#ifndef LDPR_FO_FREQUENCY_ORACLE_H_
#define LDPR_FO_FREQUENCY_ORACLE_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "fo/bitslice.h"
#include "fo/consistency.h"

namespace ldpr::fo {

/// The five LDP frequency-estimation protocols studied by the paper
/// (Section 2.2).
enum class Protocol {
  kGrr,  ///< Generalized Randomized Response
  kOlh,  ///< Optimal Local Hashing
  kSs,   ///< omega-Subset Selection
  kSue,  ///< Symmetric Unary Encoding (Basic One-time RAPPOR)
  kOue,  ///< Optimal Unary Encoding
};

/// Short display name ("GRR", "OLH", "SS", "SUE", "OUE").
const char* ProtocolName(Protocol protocol);

/// All five protocols, in the paper's order.
std::vector<Protocol> AllProtocols();

/// One sanitized user report. Protocols use different encodings, so the
/// struct carries one field per encoding; only the emitting protocol's
/// fields are meaningful (a reused Report may still hold another
/// protocol's fields, see RandomizeInto).
struct Report {
  /// GRR: the perturbed value in [0, k). OLH: the perturbed *hashed* value
  /// in [0, g).
  int value = -1;
  /// OLH only: index of the hash function drawn from the universal family.
  std::uint64_t hash_seed = 0;
  /// SS only: the reported subset Omega (distinct values in [0, k)).
  std::vector<int> subset;
  /// SUE/OUE only: the sanitized unary-encoded vector of length k.
  std::vector<std::uint8_t> bits;
};

class Aggregator;

/// Receives sanitized reports from BatchRandomize, one call per user. The
/// Report reference is only valid for the duration of the call:
/// BatchRandomize reuses a single scratch Report across users to avoid
/// per-user heap traffic, so sinks that need to keep a report must copy it.
using ReportSink = std::function<void(const Report&)>;

/// Interface for a local frequency-estimation protocol ("frequency oracle").
///
/// Each implementation provides the client-side randomizer, the server-side
/// unbiased estimator of Section 2.2 (Eq. 2 with protocol-specific p and q),
/// and the single-report "plausible deniability" adversary of Section 3.2.1.
class FrequencyOracle {
 public:
  /// `k` is the attribute domain size (>= 2); `epsilon` the LDP budget (> 0).
  FrequencyOracle(int k, double epsilon);
  virtual ~FrequencyOracle() = default;

  FrequencyOracle(const FrequencyOracle&) = delete;
  FrequencyOracle& operator=(const FrequencyOracle&) = delete;

  /// Client side: sanitizes the true value (in [0, k)) into `*out`, the
  /// protocol's one client draw that every other client path composes. It
  /// writes only its own protocol's fields (GRR `value`; OLH `hash_seed` and
  /// `value`; SS `subset`; UE `bits`), reusing their buffers, and leaves the
  /// other fields as they were, so one scratch Report serves every call.
  virtual void RandomizeInto(int value, Rng& rng, Report* out) const = 0;

  /// Client side: RandomizeInto a fresh Report.
  Report Randomize(int value, Rng& rng) const;

  /// Client side, batched: sanitizes values[0..count) in order into one
  /// reused scratch Report, handing it to `sink` after each value. Draws
  /// from `rng` exactly like `count` successive Randomize calls
  /// (bit-identical stream) and allocates O(1) heap blocks per batch.
  void BatchRandomize(const int* values, std::size_t count, Rng& rng,
                      const ReportSink& sink) const;
  void BatchRandomize(const std::vector<int>& values, Rng& rng,
                      const ReportSink& sink) const;

  /// Streaming server-side aggregation state for this oracle. Protocol
  /// subclasses return aggregators whose hot paths are fused and
  /// allocation-free (GRR/SS count tallies, OLH hashed-support counting,
  /// SUE/OUE bit-column sums).
  virtual std::unique_ptr<Aggregator> MakeAggregator() const;

  /// Server side: adds the report's support to `counts` (size k). A value v
  /// is "supported" when the report is consistent with v under the protocol's
  /// encoding (equality for GRR, hash match for OLH, subset membership for
  /// SS, set bit for UE).
  virtual void AccumulateSupport(const Report& report,
                                 std::vector<long long>* counts) const = 0;

  /// Adversary of Section 3.2.1: predicts the user's true value from one
  /// report. Ties are broken uniformly at random. Throws
  /// InvalidArgumentError on a report this protocol cannot have emitted
  /// (value outside [0, k) or [0, g), wrong subset size or bit count).
  virtual int AttackPredict(const Report& report, Rng& rng) const = 0;

  /// Client and adversary fused: sanitizes `value` and returns the
  /// adversary's prediction from that report. Draws from `rng` exactly like
  /// AttackPredict(Randomize(value, rng), rng) by running the same draw and
  /// prediction routines without the Report, on per-thread scratch, so a
  /// simulated attack makes no per-report heap allocation in steady state.
  virtual int RandomizeAndPredict(int value, Rng& rng) const = 0;

  /// Unbiased frequency estimate from support counts over n reports:
  /// fhat(v) = (C(v)/n - q) / (p - q)  (Eq. 2).
  std::vector<double> EstimateFromCounts(const std::vector<long long>& counts,
                                         long long n) const;

  /// Convenience: randomize every value, then estimate.
  std::vector<double> EstimateFrequencies(const std::vector<int>& values,
                                          Rng& rng) const;

  /// Per-estimate variance of Eq. 2 at true frequency f (Wang et al. 2017):
  /// Var = q(1-q) / (n (p-q)^2) + f (1 - p - q) / (n (p - q)).
  double EstimatorVariance(long long n, double f = 0.0) const;

  virtual Protocol protocol() const = 0;

  int k() const { return k_; }
  double epsilon() const { return epsilon_; }
  /// Probability that the "true" position is reported/supported.
  double p() const { return p_; }
  /// Probability that any other fixed position is reported/supported.
  double q() const { return q_; }

 protected:
  void SetProbabilities(double p, double q);

 private:
  int k_;
  double epsilon_;
  double p_ = 0.0;
  double q_ = 0.0;
};

/// Streaming server-side aggregator: support counts plus the number of
/// accumulated reports, nothing else. Feed it reports one at a time
/// (Accumulate), fused client+server values (AccumulateValue), or whole
/// true-value histograms (AccumulateHistogram); shard-local aggregators
/// Merge into one before Estimate. No per-user Report vector is ever
/// materialized on any of these paths.
///
/// Obtain instances from FrequencyOracle::MakeAggregator(); the oracle must
/// outlive the aggregator.
class Aggregator {
 public:
  explicit Aggregator(const FrequencyOracle& oracle);
  virtual ~Aggregator() = default;

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Server side: folds one report's support into the counts. The UE/SS/OLH
  /// aggregators override this to *stage* the report — packing its exact
  /// SerializeReport image into an internal block of wire rows and deferring
  /// all decode work to their AccumulateWireBlock kernels — so the batch
  /// (non-wire) path runs at block-kernel speed too. Staging is invisible:
  /// every read of the state (counts(), n(), Estimate(), Merge() — both
  /// sides) drains it first, and integer support sums commute, so results
  /// stay bit-identical to the scalar AccumulateSupport loop wherever the
  /// flush boundaries fall.
  virtual void Accumulate(const Report& report);

  /// Fused client + server: randomizes `value` and accumulates its support.
  /// Draws from `rng` exactly like Randomize(value, rng) (bit-identical
  /// stream). The default is RandomizeInto a per-thread scratch Report,
  /// then Accumulate, so UE and OLH values stage into their block kernels;
  /// GRR and SS override it with a tally over their client draw.
  virtual void AccumulateValue(int value, Rng& rng);

  /// AccumulateValue over a span of values.
  void AccumulateValues(const int* values, std::size_t count, Rng& rng);
  void AccumulateValues(const std::vector<int>& values, Rng& rng);

  /// Closed-form batch: draws the aggregate support counts of
  /// histogram[v]-many users holding each value v in O(k) RNG draws total,
  /// instead of simulating the n users one by one. The default samples each
  /// cell's count as Binomial(histogram[v], p) + Binomial(n - histogram[v],
  /// q), which is exactly the marginal distribution of the scalar path for
  /// every protocol (cells are supported with probability p/q independently
  /// across users); cross-cell correlations of one user's SS subset / OLH
  /// preimage / UE bit vector are not reproduced, which leaves every
  /// per-cell estimate, its variance, and any expected-MSE metric
  /// distribution-exact. GRR overrides this with a sum-preserving
  /// multinomial that is exact jointly as well.
  virtual void AccumulateHistogram(const std::vector<long long>& histogram,
                                   Rng& rng);

  /// Closed-form batch for a Bernoulli(rate)-thinned population: draws the
  /// sub-histogram Binomial(histogram[v], rate) per cell — the users that
  /// actually reach this oracle, e.g. the 1/d uniform attribute samplers of
  /// SMP — then folds its closed-form support counts in via
  /// AccumulateHistogram. Returns the number of thinned users accumulated,
  /// which is also what n() grows by.
  long long AccumulateSubsampledHistogram(
      const std::vector<long long>& histogram, double rate, Rng& rng);

  /// Decodes and accumulates a block of pre-validated wire frames — the
  /// serving layer's bitsliced hot path. `frames` points at `count` rows of
  /// `stride` bytes; each row begins with one exact SerializeReport image
  /// (WireDecoder::Validate-accepted) and the caller must guarantee
  ///   - stride >= bitslice::RowStride(frame size) with zero padding bytes,
  ///   - bitslice::kRowTailSlack readable bytes after the last row
  /// (the staging block behind AccumulateFrame is laid out exactly like
  /// this).
  /// Produces bit-identical counts()/n() to `count` scalar
  /// WireDecoder::DecodeInto calls — the base implementation *is* that
  /// scalar loop, and protocol overrides (UE bit-column slicing, batched
  /// OLH hashing, GRR/SS field tallies) are pinned to it by
  /// fo_bitslice_exact_test.
  virtual void AccumulateWireBlock(const std::uint8_t* frames,
                                   std::size_t stride, int count);

  /// Stages one pre-validated wire frame for AccumulateWireBlock: copies it
  /// into the next row of the staging block (StageRowSlot + memcpy +
  /// CommitStagedRow), so the protocol's block kernel decodes it when the
  /// block fills or the state is next read. `frame` must be one exact
  /// SerializeReport image of this aggregator's oracle
  /// (WireDecoder::Validate-accepted), the same size on every call. Same
  /// counts()/n() as WireDecoder::DecodeInto on the frame (pinned by
  /// fo_bitslice_exact_test).
  void AccumulateFrame(std::span<const std::uint8_t> frame) {
    std::memcpy(StageRowSlot(bitslice::RowStride(frame.size())), frame.data(),
                frame.size());
    CommitStagedRow();
  }

  /// Folds another aggregator of the same protocol/domain into this one.
  void Merge(const Aggregator& other);

  /// Empties the aggregator: counts(), n() and the staged rows go back to
  /// zero, as in a fresh aggregator, while the staging block, protocol
  /// scratch (e.g. OLH's per-value hash halves) and the decode observer are
  /// kept. Results after Reset are bit-identical to a fresh MakeAggregator()
  /// fed the same stream (fo_bitslice_exact_test).
  void Reset();

  /// Unbiased Eq. (2) estimate over everything accumulated so far.
  std::vector<double> Estimate() const;

  /// Estimate followed by consistency post-processing (NDSS'20).
  std::vector<double> Estimate(ConsistencyMethod method,
                               double threshold = 0.0) const;

  const std::vector<long long>& counts() const {
    FlushStaged();
    return counts_;
  }
  long long n() const {
    FlushStaged();
    return n_;
  }
  const FrequencyOracle& oracle() const { return oracle_; }
  /// Rows staged and not yet decoded; the next read of the state decodes
  /// them, and so does the AccumulateFrame/Accumulate that fills the block.
  int staged() const { return staged_rows_; }

  /// Called once per staged-block decode, with the rows decoded and the
  /// seconds the decode took: each full block and each partial block a read
  /// drains. Unset (the default), staging does no timing at all.
  void ObserveDecodes(std::function<void(int rows, double seconds)> observer) {
    decode_observer_ = std::move(observer);
  }

 protected:
  /// Lazily allocates the report-side staging block (bitslice::kBlockRows
  /// rows of `stride` bytes plus tail slack, zeroed) and returns the next
  /// free row for a staged Accumulate override to pack a wire image into.
  std::uint8_t* StageRowSlot(std::size_t stride) {
    if (staging_.empty()) AllocateStaging(stride);
    return staging_.data() +
           static_cast<std::size_t>(staged_rows_) * staging_stride_;
  }
  /// Commits the row returned by StageRowSlot; flushes the block through
  /// AccumulateWireBlock when it fills.
  void CommitStagedRow() {
    if (++staged_rows_ == bitslice::kBlockRows) FlushStaged();
  }
  /// Drains staged rows into counts_/n_. Const because staging is a deferred
  /// materialization of reports already Accumulated — the logical state (the
  /// multiset of accumulated reports) does not change, only where it lives.
  void FlushStaged() const;

  const FrequencyOracle& oracle_;
  std::vector<long long> counts_;
  long long n_ = 0;

 private:
  void AllocateStaging(std::size_t stride);

  std::vector<std::uint8_t> staging_;  ///< wire rows, see StageRowSlot
  std::size_t staging_stride_ = 0;
  int staged_rows_ = 0;
  std::function<void(int rows, double seconds)> decode_observer_;
};

}  // namespace ldpr::fo

#endif  // LDPR_FO_FREQUENCY_ORACLE_H_
