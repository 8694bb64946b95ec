#include "multidim/closed_form.h"

#include <memory>

#include "core/check.h"
#include "core/sampling.h"
#include "fo/frequency_oracle.h"

namespace ldpr::multidim {

namespace {

/// Validates `hists` against a solution of dimensionality d / the given
/// domain sizes and total population n.
void CheckHistograms(const AttributeHistograms& hists,
                     const std::vector<int>& domain_sizes, long long n) {
  LDPR_REQUIRE(hists.size() == domain_sizes.size(),
               "histograms cover " << hists.size() << " attributes, expected "
                                   << domain_sizes.size());
  LDPR_REQUIRE(n >= 1, "closed-form sampling requires n >= 1");
  for (std::size_t j = 0; j < hists.size(); ++j) {
    LDPR_REQUIRE(static_cast<int>(hists[j].size()) == domain_sizes[j],
                 "histogram for attribute " << j << " has wrong length");
    long long total = 0;
    for (long long h : hists[j]) {
      LDPR_REQUIRE(h >= 0, "histogram cells must be non-negative");
      total += h;
    }
    LDPR_REQUIRE(total == n, "histogram for attribute "
                                 << j << " sums to " << total
                                 << ", expected n = " << n);
  }
}

/// Thins one attribute's histogram by the 1/d attribute-sampling rate:
/// sub[v] ~ Binomial(hist[v], 1/d), returning the thinned total m_j.
long long ThinByAttributeSampling(const std::vector<long long>& hist, int d,
                                  Rng& rng, std::vector<long long>* sub) {
  const double rate = 1.0 / static_cast<double>(d);
  sub->assign(hist.size(), 0);
  long long m = 0;
  for (std::size_t v = 0; v < hist.size(); ++v) {
    (*sub)[v] = rng.Binomial64(hist[v], rate);
    m += (*sub)[v];
  }
  return m;
}

/// Sampled-user closed form, shared by every randomizer: value v of the
/// attribute is supported with probability p by each of the sub[v] users
/// truly holding v and with probability q by each of the other m - sub[v]
/// sampled users, so cell v's count is Binomial(sub[v], p) +
/// Binomial(m - sub[v], q) — O(k) draws. For UE payloads this is exact
/// jointly across cells (bits perturb independently); for GRR it is the
/// per-cell-exact marginal form of the report multinomial (the same
/// contract as fo::Aggregator::AccumulateHistogram's default — every
/// per-cell estimate, its variance, and any expected-MSE metric stays
/// distribution-exact; only cross-cell count correlations are dropped).
/// The O(k) form is what buys the order-of-magnitude on large-k attributes
/// (ACS k = 92) over a sum-preserving O(k^2) lie-spreading chain.
void AddSampledSupportCounts(const std::vector<long long>& sub, long long m,
                             double p, double q, Rng& rng,
                             std::vector<long long>* counts) {
  for (std::size_t v = 0; v < sub.size(); ++v) {
    (*counts)[v] += rng.Binomial64(sub[v], p) + rng.Binomial64(m - sub[v], q);
  }
}

/// Fake-data counts for one attribute: `fakes` users draw a fake input from
/// the column's source. GRR payloads emit the value itself (one
/// multinomial); UE payloads one-hot it and perturb (multinomial over hot
/// positions, then per-bit binomials). Zero-vector fakes perturb the
/// all-zero vector: Binomial(fakes, q) per bit. Uniform sources weigh every
/// value 1.0 (the weights the pinned fast-profile streams were drawn with).
void AddFakeCounts(long long fakes, const FakeData& protocol, int j,
                   Rng& rng, std::vector<long long>* counts) {
  if (fakes <= 0) return;
  const FakeData::Column& column = protocol.column(j);
  const int k = static_cast<int>(counts->size());
  if (column.source == FakeSource::kZero) {
    for (int v = 0; v < k; ++v) {
      (*counts)[v] += rng.Binomial64(fakes, column.q);
    }
    return;
  }
  std::vector<double> weights(k, 1.0);
  if (column.source == FakeSource::kPrior) {
    for (int v = 0; v < k; ++v) weights[v] = protocol.FakeMass(j, v);
  }
  const std::vector<long long> draw = SampleMultinomial(fakes, weights, rng);
  if (column.payload == FakePayload::kGrr) {
    for (int v = 0; v < k; ++v) (*counts)[v] += draw[v];
    return;
  }
  AddSampledSupportCounts(draw, fakes, column.p, column.q, rng, counts);
}

}  // namespace

std::vector<std::vector<long long>> SampleSupportCounts(
    const FakeData& protocol, const AttributeHistograms& hists, long long n,
    Rng& rng) {
  CheckHistograms(hists, protocol.domain_sizes(), n);
  const int d = protocol.d();
  std::vector<std::vector<long long>> counts(d);
  std::vector<long long> sub;
  for (int j = 0; j < d; ++j) {
    counts[j].assign(protocol.domain_sizes()[j], 0);
    const long long m = ThinByAttributeSampling(hists[j], d, rng, &sub);
    AddSampledSupportCounts(sub, m, protocol.p(j), protocol.q(j), rng,
                            &counts[j]);
    AddFakeCounts(n - m, protocol, j, rng, &counts[j]);
  }
  return counts;
}

std::vector<std::vector<double>> EstimateClosedForm(
    const FakeData& protocol, const AttributeHistograms& hists, long long n,
    Rng& rng) {
  return protocol.EstimateFromSupportCounts(
      SampleSupportCounts(protocol, hists, n, rng), n);
}

std::vector<std::vector<double>> EstimateClosedForm(
    const Spl& protocol, const AttributeHistograms& hists, long long n,
    Rng& rng) {
  CheckHistograms(hists, protocol.domain_sizes(), n);
  std::vector<std::vector<double>> est(protocol.d());
  for (int j = 0; j < protocol.d(); ++j) {
    auto agg = protocol.oracle(j).MakeAggregator();
    agg->AccumulateHistogram(hists[j], rng);
    est[j] = agg->Estimate();
  }
  return est;
}

namespace {

/// Shared SMP closed form: works for any solution exposing d() and
/// oracle(j) (Smp, SmpAdaptive).
template <typename Solution>
std::vector<std::vector<double>> SmpClosedForm(
    const Solution& protocol, const AttributeHistograms& hists, long long n,
    Rng& rng) {
  CheckHistograms(hists, protocol.domain_sizes(), n);
  const int d = protocol.d();
  const double rate = 1.0 / static_cast<double>(d);
  std::vector<std::vector<double>> est(d);
  for (int j = 0; j < d; ++j) {
    auto agg = protocol.oracle(j).MakeAggregator();
    const long long nj = agg->AccumulateSubsampledHistogram(hists[j], rate,
                                                            rng);
    if (nj == 0) {
      // No user sampled this attribute; the best unbiased guess is uniform
      // (mirrors Smp::Estimate).
      const int kj = protocol.domain_sizes()[j];
      est[j].assign(kj, 1.0 / kj);
    } else {
      est[j] = agg->Estimate();
    }
  }
  return est;
}

}  // namespace

std::vector<std::vector<double>> EstimateClosedForm(
    const Smp& protocol, const AttributeHistograms& hists, long long n,
    Rng& rng) {
  return SmpClosedForm(protocol, hists, n, rng);
}

std::vector<std::vector<double>> EstimateClosedForm(
    const SmpAdaptive& protocol, const AttributeHistograms& hists,
    long long n, Rng& rng) {
  return SmpClosedForm(protocol, hists, n, rng);
}

}  // namespace ldpr::multidim
