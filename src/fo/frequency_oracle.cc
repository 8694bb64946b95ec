#include "fo/frequency_oracle.h"

#include <algorithm>
#include <cstring>

#include "core/check.h"
#include "core/stats.h"
#include "fo/bitslice.h"
#include "fo/wire.h"

namespace ldpr::fo {

const char* ProtocolName(Protocol protocol) {
  switch (protocol) {
    case Protocol::kGrr:
      return "GRR";
    case Protocol::kOlh:
      return "OLH";
    case Protocol::kSs:
      return "SS";
    case Protocol::kSue:
      return "SUE";
    case Protocol::kOue:
      return "OUE";
  }
  return "unknown";
}

std::vector<Protocol> AllProtocols() {
  return {Protocol::kGrr, Protocol::kOlh, Protocol::kSs, Protocol::kSue,
          Protocol::kOue};
}

FrequencyOracle::FrequencyOracle(int k, double epsilon)
    : k_(k), epsilon_(epsilon) {
  LDPR_REQUIRE(k >= 2, "frequency oracle requires domain size k >= 2, got "
                           << k);
  LDPR_REQUIRE(epsilon > 0.0, "frequency oracle requires epsilon > 0, got "
                                  << epsilon);
}

void FrequencyOracle::SetProbabilities(double p, double q) {
  LDPR_CHECK(p > q && q >= 0.0 && p <= 1.0,
             "protocol probabilities must satisfy 0 <= q < p <= 1, got p=" << p
                                                                           << " q="
                                                                           << q);
  p_ = p;
  q_ = q;
}

std::vector<double> FrequencyOracle::EstimateFromCounts(
    const std::vector<long long>& counts, long long n) const {
  LDPR_REQUIRE(static_cast<int>(counts.size()) == k_,
               "counts has size " << counts.size() << ", expected k=" << k_);
  LDPR_REQUIRE(n >= 1, "EstimateFromCounts requires n >= 1");
  std::vector<double> est(k_);
  const double denom = p_ - q_;
  for (int v = 0; v < k_; ++v) {
    est[v] = (static_cast<double>(counts[v]) / n - q_) / denom;
  }
  return est;
}

std::vector<double> FrequencyOracle::EstimateFrequencies(
    const std::vector<int>& values, Rng& rng) const {
  LDPR_REQUIRE(!values.empty(), "EstimateFrequencies requires >= 1 value");
  // The fused aggregator path consumes `rng` exactly like the historical
  // Randomize + AccumulateSupport loop, so results are bit-identical.
  std::unique_ptr<Aggregator> agg = MakeAggregator();
  agg->AccumulateValues(values, rng);
  return agg->Estimate();
}

Report FrequencyOracle::Randomize(int value, Rng& rng) const {
  Report r;
  RandomizeInto(value, rng, &r);
  return r;
}

void FrequencyOracle::BatchRandomize(const int* values, std::size_t count,
                                     Rng& rng, const ReportSink& sink) const {
  Report r;
  for (std::size_t i = 0; i < count; ++i) {
    RandomizeInto(values[i], rng, &r);
    sink(r);
  }
}

void FrequencyOracle::BatchRandomize(const std::vector<int>& values, Rng& rng,
                                     const ReportSink& sink) const {
  BatchRandomize(values.data(), values.size(), rng, sink);
}

std::unique_ptr<Aggregator> FrequencyOracle::MakeAggregator() const {
  return std::make_unique<Aggregator>(*this);
}

Aggregator::Aggregator(const FrequencyOracle& oracle)
    : oracle_(oracle), counts_(oracle.k(), 0) {}

void Aggregator::Accumulate(const Report& report) {
  oracle_.AccumulateSupport(report, &counts_);
  ++n_;
}

void Aggregator::AllocateStaging(std::size_t stride) {
  staging_stride_ = stride;
  staging_.assign(static_cast<std::size_t>(bitslice::kBlockRows) * stride +
                      bitslice::kRowTailSlack,
                  0);
}

void Aggregator::FlushStaged() const {
  if (staged_rows_ == 0) return;
  // Logically const (see the header): only the internal representation of
  // already-accumulated reports moves from staged rows into counts_.
  Aggregator* self = const_cast<Aggregator*>(this);
  const int rows = self->staged_rows_;
  self->staged_rows_ = 0;
  const double start = decode_observer_ ? MonotonicSeconds() : 0.0;
  self->AccumulateWireBlock(self->staging_.data(), self->staging_stride_,
                            rows);
  if (decode_observer_) decode_observer_(rows, MonotonicSeconds() - start);
}

void Aggregator::AccumulateValue(int value, Rng& rng) {
  // Per thread rather than a member: Accumulate consumes the report before
  // it returns, and a larger Aggregator object shifts where the serving
  // path's big buffers land on the heap, which measurably slowed socket
  // ingest.
  thread_local Report scratch;
  oracle_.RandomizeInto(value, rng, &scratch);
  Accumulate(scratch);
}

void Aggregator::AccumulateValues(const int* values, std::size_t count,
                                  Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) AccumulateValue(values[i], rng);
}

void Aggregator::AccumulateValues(const std::vector<int>& values, Rng& rng) {
  AccumulateValues(values.data(), values.size(), rng);
}

void Aggregator::AccumulateHistogram(const std::vector<long long>& histogram,
                                     Rng& rng) {
  const int k = oracle_.k();
  LDPR_REQUIRE(static_cast<int>(histogram.size()) == k,
               "histogram has size " << histogram.size() << ", expected k="
                                     << k);
  long long total = 0;
  for (long long h : histogram) {
    LDPR_REQUIRE(h >= 0, "histogram cells must be non-negative");
    total += h;
  }
  // Cell v is supported by a user holding v with probability p and by any
  // other user with probability q, independently across users, so the
  // aggregate count is Binomial(h_v, p) + Binomial(n - h_v, q) exactly.
  for (int v = 0; v < k; ++v) {
    counts_[v] += rng.Binomial64(histogram[v], oracle_.p()) +
                  rng.Binomial64(total - histogram[v], oracle_.q());
  }
  n_ += total;
}

long long Aggregator::AccumulateSubsampledHistogram(
    const std::vector<long long>& histogram, double rate, Rng& rng) {
  LDPR_REQUIRE(rate >= 0.0 && rate <= 1.0,
               "subsample rate must be in [0, 1], got " << rate);
  std::vector<long long> thinned(histogram.size(), 0);
  long long total = 0;
  for (std::size_t v = 0; v < histogram.size(); ++v) {
    LDPR_REQUIRE(histogram[v] >= 0, "histogram cells must be non-negative");
    thinned[v] = rng.Binomial64(histogram[v], rate);
    total += thinned[v];
  }
  AccumulateHistogram(thinned, rng);
  return total;
}

void Aggregator::AccumulateWireBlock(const std::uint8_t* frames,
                                     std::size_t stride, int count) {
  // Scalar reference path: decode each staged frame like the streaming
  // ingest loop would. Protocol subclasses override with block kernels that
  // must stay bit-identical to this.
  WireDecoder decoder(oracle_);
  const std::uint8_t* row = frames;
  for (int r = 0; r < count; ++r, row += stride) {
    const bool ok = decoder.DecodeInto({row, decoder.report_bytes()}, *this);
    LDPR_CHECK(ok, "AccumulateWireBlock fed an invalid frame: callers must "
               "pre-validate (WireDecoder::Validate)");
  }
}

void Aggregator::Merge(const Aggregator& other) {
  LDPR_REQUIRE(oracle_.protocol() == other.oracle_.protocol() &&
                   counts_.size() == other.counts_.size(),
               "cannot merge aggregators of different protocols/domains");
  FlushStaged();
  other.FlushStaged();
  for (std::size_t v = 0; v < counts_.size(); ++v) {
    counts_[v] += other.counts_[v];
  }
  n_ += other.n_;
}

void Aggregator::Reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  n_ = 0;
  // The staged rows are dropped undecoded; their row padding is still zero
  // (every staged frame of one aggregator has the same size).
  staged_rows_ = 0;
}

std::vector<double> Aggregator::Estimate() const {
  FlushStaged();
  return oracle_.EstimateFromCounts(counts_, n_);
}

std::vector<double> Aggregator::Estimate(ConsistencyMethod method,
                                         double threshold) const {
  return MakeConsistent(Estimate(), method, threshold);
}

double FrequencyOracle::EstimatorVariance(long long n, double f) const {
  LDPR_REQUIRE(n >= 1, "EstimatorVariance requires n >= 1");
  const double denom = p_ - q_;
  return q_ * (1.0 - q_) / (n * denom * denom) +
         f * (1.0 - p_ - q_) / (n * denom);
}

}  // namespace ldpr::fo
