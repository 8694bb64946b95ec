#include "fo/grr.h"

#include <cmath>

#include "core/check.h"
#include "fo/bitslice.h"
#include "fo/wire.h"

namespace ldpr::fo {

namespace {

// Pr[the true value is reported]. Perturb and the constructor share this one
// expression, so the paths that draw with p() draw exactly like Perturb.
double KeepProbability(int k, double eps) {
  const double e = std::exp(eps);
  return e / (e + k - 1);
}

}  // namespace

Grr::Grr(int k, double epsilon) : FrequencyOracle(k, epsilon) {
  const double e = std::exp(epsilon);
  SetProbabilities(KeepProbability(k, epsilon), 1.0 / (e + k - 1));
}

int Grr::Perturb(int value, int k, double eps, Rng& rng) {
  LDPR_REQUIRE(k >= 2 && eps > 0.0, "GRR perturb requires k >= 2, eps > 0");
  LDPR_REQUIRE(value >= 0 && value < k,
               "value " << value << " outside [0, " << k << ")");
  if (rng.Bernoulli(KeepProbability(k, eps))) return value;
  // Uniform over the k-1 other values.
  int other = static_cast<int>(rng.UniformInt(k - 1));
  return other >= value ? other + 1 : other;
}

Report Grr::Randomize(int value, Rng& rng) const {
  Report r;
  r.value = Perturb(value, k(), epsilon(), rng);
  return r;
}

void Grr::AccumulateSupport(const Report& report,
                            std::vector<long long>* counts) const {
  LDPR_REQUIRE(report.value >= 0 && report.value < k(),
               "GRR report value out of range");
  ++(*counts)[report.value];
}

int Grr::AttackPredict(const Report& report, Rng& /*rng*/) const {
  // The reported value is the single most likely true value (prob. p > q).
  return report.value;
}

int Grr::RandomizeAndPredict(int value, Rng& rng) const {
  const int k = this->k();
  LDPR_REQUIRE(value >= 0 && value < k,
               "value " << value << " outside [0, " << k << ")");
  // Same draws as Perturb; the prediction is the report itself.
  if (rng.Bernoulli(p())) return value;
  int other = static_cast<int>(rng.UniformInt(k - 1));
  return other >= value ? other + 1 : other;
}

namespace {

class GrrAggregator : public Aggregator {
 public:
  using Aggregator::Aggregator;

  void AccumulateValue(int value, Rng& rng) override {
    const int k = oracle_.k();
    LDPR_REQUIRE(value >= 0 && value < k,
                 "value " << value << " outside [0, " << k << ")");
    // Same draws as Grr::Perturb, tallied without building a Report.
    if (rng.Bernoulli(oracle_.p())) {
      ++counts_[value];
    } else {
      int other = static_cast<int>(rng.UniformInt(k - 1));
      ++counts_[other >= value ? other + 1 : other];
    }
    ++n_;
  }

  void AccumulateWireBlock(const std::uint8_t* frames, std::size_t stride,
                           int count) override {
    // One big-endian word load per frame: the value is the top
    // ceil(log2 k) bits (validation already guaranteed value < k).
    const int width = CeilLog2(oracle_.k());
    const std::uint8_t* row = frames;
    for (int r = 0; r < count; ++r, row += stride) {
      ++counts_[static_cast<int>(bitslice::Load64Be(row) >> (64 - width))];
    }
    n_ += count;
  }

  void AccumulateHistogram(const std::vector<long long>& histogram,
                           Rng& rng) override {
    const int k = oracle_.k();
    LDPR_REQUIRE(static_cast<int>(histogram.size()) == k,
                 "histogram has size " << histogram.size() << ", expected k="
                                       << k);
    // The reports of the histogram[u] users holding u are jointly
    // Multinomial(histogram[u], (q, ..., p, ..., q)); sample it exactly as a
    // Binomial(truthful) draw followed by a uniform binomial chain over the
    // k - 1 lies, preserving sum(counts) == n.
    long long total = 0;
    for (int u = 0; u < k; ++u) {
      const long long group = histogram[u];
      LDPR_REQUIRE(group >= 0, "histogram cells must be non-negative");
      if (group == 0) continue;
      total += group;
      const long long truthful = rng.Binomial64(group, oracle_.p());
      counts_[u] += truthful;
      long long lies = group - truthful;
      int cells_left = k - 1;
      for (int v = 0; v < k && lies > 0; ++v) {
        if (v == u) continue;
        const long long x =
            cells_left == 1 ? lies : rng.Binomial64(lies, 1.0 / cells_left);
        counts_[v] += x;
        lies -= x;
        --cells_left;
      }
    }
    n_ += total;
  }
};

}  // namespace

std::unique_ptr<Aggregator> Grr::MakeAggregator() const {
  return std::make_unique<GrrAggregator>(*this);
}

}  // namespace ldpr::fo
