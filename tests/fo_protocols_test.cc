#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "core/check.h"
#include "core/histogram.h"
#include "core/metrics.h"
#include "core/sampling.h"
#include "attack/plausible_deniability.h"
#include "fo/factory.h"
#include "fo/grr.h"
#include "fo/olh.h"
#include "fo/ss.h"
#include "fo/unary_encoding.h"

namespace ldpr::fo {
namespace {

// ---------------------------------------------------------------------------
// Closed-form protocol parameters.
// ---------------------------------------------------------------------------

TEST(GrrTest, Probabilities) {
  Grr grr(4, 1.0);
  const double e = std::exp(1.0);
  EXPECT_NEAR(grr.p(), e / (e + 3.0), 1e-12);
  EXPECT_NEAR(grr.q(), 1.0 / (e + 3.0), 1e-12);
  EXPECT_NEAR(grr.p() / grr.q(), e, 1e-9);
}

TEST(OlhTest, ReducedDomainAndProbabilities) {
  Olh olh(100, 2.0);
  const double e = std::exp(2.0);
  EXPECT_EQ(olh.g(), static_cast<int>(std::lround(e)) + 1);
  EXPECT_NEAR(olh.p_prime(), e / (e + olh.g() - 1), 1e-12);
  EXPECT_NEAR(olh.q(), 1.0 / olh.g(), 1e-12);
  // Likelihood ratio inside the reduced domain is exactly e^eps.
  const double q_prime = 1.0 / (e + olh.g() - 1);
  EXPECT_NEAR(olh.p_prime() / q_prime, e, 1e-9);
}

TEST(OlhTest, SmallEpsilonDomainFloor) {
  Olh olh(50, 0.1);
  EXPECT_GE(olh.g(), 2);
}

TEST(SsTest, OmegaAndProbabilities) {
  const int k = 30;
  const double eps = 1.0;
  Ss ss(k, eps);
  const double e = std::exp(eps);
  EXPECT_EQ(ss.omega(), static_cast<int>(std::lround(k / (e + 1.0))));
  const double w = ss.omega();
  EXPECT_NEAR(ss.p(), w * e / (w * e + k - w), 1e-12);
  // LDP worst-case likelihood ratio: (p/(1-p)) (k-omega)/omega = e^eps.
  EXPECT_NEAR(ss.p() / (1.0 - ss.p()) * (k - w) / w, e, 1e-9);
}

TEST(SsTest, OmegaClampedForSmallDomains) {
  Ss ss(3, 5.0);  // k/(e^eps+1) < 1
  EXPECT_EQ(ss.omega(), 1);
  Ss ss2(4, 0.01);  // k/(e^eps+1) ~ 2
  EXPECT_LE(ss2.omega(), 3);
  EXPECT_GE(ss2.omega(), 1);
}

TEST(SueTest, ProbabilitiesAndLdpRatio) {
  const double eps = 3.0;
  Sue sue(10, eps);
  const double e2 = std::exp(eps / 2.0);
  EXPECT_NEAR(sue.p(), e2 / (e2 + 1.0), 1e-12);
  EXPECT_NEAR(sue.q(), 1.0 / (e2 + 1.0), 1e-12);
  EXPECT_NEAR(sue.p() + sue.q(), 1.0, 1e-12);  // symmetric
  // eps = ln(p(1-q) / ((1-p)q)).
  const double ratio = sue.p() * (1.0 - sue.q()) / ((1.0 - sue.p()) * sue.q());
  EXPECT_NEAR(std::log(ratio), eps, 1e-9);
}

TEST(OueTest, ProbabilitiesAndLdpRatio) {
  const double eps = 3.0;
  Oue oue(10, eps);
  EXPECT_DOUBLE_EQ(oue.p(), 0.5);
  EXPECT_NEAR(oue.q(), 1.0 / (std::exp(eps) + 1.0), 1e-12);
  const double ratio = oue.p() * (1.0 - oue.q()) / ((1.0 - oue.p()) * oue.q());
  EXPECT_NEAR(std::log(ratio), eps, 1e-9);
}

TEST(FactoryTest, ProducesCorrectTypes) {
  for (Protocol p : AllProtocols()) {
    auto oracle = MakeOracle(p, 8, 1.0);
    EXPECT_EQ(oracle->protocol(), p);
    EXPECT_EQ(oracle->k(), 8);
    EXPECT_DOUBLE_EQ(oracle->epsilon(), 1.0);
    EXPECT_GT(oracle->p(), oracle->q());
  }
}

TEST(FactoryTest, ProtocolNames) {
  EXPECT_STREQ(ProtocolName(Protocol::kGrr), "GRR");
  EXPECT_STREQ(ProtocolName(Protocol::kOlh), "OLH");
  EXPECT_STREQ(ProtocolName(Protocol::kSs), "SS");
  EXPECT_STREQ(ProtocolName(Protocol::kSue), "SUE");
  EXPECT_STREQ(ProtocolName(Protocol::kOue), "OUE");
  EXPECT_EQ(AllProtocols().size(), 5u);
}

TEST(OracleValidationTest, RejectsBadParameters) {
  for (Protocol p : AllProtocols()) {
    EXPECT_THROW(MakeOracle(p, 1, 1.0), InvalidArgumentError);
    EXPECT_THROW(MakeOracle(p, 8, 0.0), InvalidArgumentError);
    EXPECT_THROW(MakeOracle(p, 8, -2.0), InvalidArgumentError);
  }
}

// ---------------------------------------------------------------------------
// Empirical LDP bound (GRR admits a direct output-distribution check).
// ---------------------------------------------------------------------------

TEST(GrrTest, EmpiricalLdpBound) {
  const double eps = 1.0;
  const int k = 4;
  Grr grr(k, eps);
  Rng rng(99);
  const int trials = 200000;
  // Output histograms conditioned on two different inputs.
  std::vector<double> h0(k, 0.0), h1(k, 0.0);
  for (int t = 0; t < trials; ++t) {
    ++h0[grr.Randomize(0, rng).value];
    ++h1[grr.Randomize(1, rng).value];
  }
  for (int y = 0; y < k; ++y) {
    const double r = (h0[y] / trials) / (h1[y] / trials);
    EXPECT_LE(r, std::exp(eps) * 1.1) << "y=" << y;
    EXPECT_GE(r, std::exp(-eps) / 1.1) << "y=" << y;
  }
}

// ---------------------------------------------------------------------------
// Parameterized estimator properties across protocols, eps and k.
// ---------------------------------------------------------------------------

using ParamTuple = std::tuple<Protocol, double, int>;

class EstimatorPropertyTest : public ::testing::TestWithParam<ParamTuple> {};

TEST_P(EstimatorPropertyTest, UnbiasedOnSkewedData) {
  auto [protocol, eps, k] = GetParam();
  auto oracle = MakeOracle(protocol, k, eps);

  // Skewed ground truth: Zipf over k values.
  std::vector<double> truth = ZipfDistribution(k, 1.2);
  Rng rng(1234 + k);
  CategoricalSampler sampler(truth);
  const int n = 60000;
  std::vector<int> values(n);
  for (int i = 0; i < n; ++i) values[i] = sampler.Sample(rng);
  auto actual = EmpiricalFrequency(values, k);

  auto est = oracle->EstimateFrequencies(values, rng);
  ASSERT_EQ(static_cast<int>(est.size()), k);

  // Tolerance: 5 standard deviations of the estimator at each frequency.
  for (int v = 0; v < k; ++v) {
    const double sd = std::sqrt(oracle->EstimatorVariance(n, actual[v]));
    EXPECT_NEAR(est[v], actual[v], 5.0 * sd + 1e-6)
        << ProtocolName(protocol) << " eps=" << eps << " k=" << k
        << " v=" << v;
  }
}

TEST_P(EstimatorPropertyTest, EstimatesSumNearOne) {
  auto [protocol, eps, k] = GetParam();
  auto oracle = MakeOracle(protocol, k, eps);
  Rng rng(777 + k);
  const int n = 40000;
  std::vector<int> values(n);
  for (int i = 0; i < n; ++i) {
    values[i] = static_cast<int>(rng.UniformInt(k));
  }
  auto est = oracle->EstimateFrequencies(values, rng);
  double sum = 0.0;
  for (double f : est) sum += f;
  // GRR/SS sum to ~1 structurally; UE/OLH only in expectation.
  double tol = 6.0 * std::sqrt(static_cast<double>(k) *
                               oracle->EstimatorVariance(n, 1.0 / k));
  EXPECT_NEAR(sum, 1.0, tol + 1e-6)
      << ProtocolName(protocol) << " eps=" << eps << " k=" << k;
}

TEST_P(EstimatorPropertyTest, AttackPredictInDomain) {
  auto [protocol, eps, k] = GetParam();
  auto oracle = MakeOracle(protocol, k, eps);
  Rng rng(555);
  for (int t = 0; t < 200; ++t) {
    int v = static_cast<int>(rng.UniformInt(k));
    Report r = oracle->Randomize(v, rng);
    int pred = oracle->AttackPredict(r, rng);
    EXPECT_GE(pred, 0);
    EXPECT_LT(pred, k);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EstimatorPropertyTest,
    ::testing::Combine(::testing::Values(Protocol::kGrr, Protocol::kOlh,
                                         Protocol::kSs, Protocol::kSue,
                                         Protocol::kOue),
                       ::testing::Values(0.5, 1.0, 4.0),
                       ::testing::Values(2, 5, 32)),
    [](const ::testing::TestParamInfo<ParamTuple>& info) {
      std::string name = ProtocolName(std::get<0>(info.param));
      name += "_eps";
      name += std::to_string(static_cast<int>(std::get<1>(info.param) * 10));
      name += "_k" + std::to_string(std::get<2>(info.param));
      return name;
    });

// ---------------------------------------------------------------------------
// Variance formula versus empirical estimator variance.
// ---------------------------------------------------------------------------

class VarianceMatchTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(VarianceMatchTest, FormulaMatchesEmpiricalVariance) {
  const Protocol protocol = GetParam();
  const int k = 6;
  const double eps = 1.0;
  const int n = 2000;
  const int runs = 300;
  auto oracle = MakeOracle(protocol, k, eps);
  Rng rng(31337);

  // All users hold value 0, so f(0) = 1 and f(v != 0) = 0.
  std::vector<int> values(n, 0);
  std::vector<double> est_v1(runs);
  for (int r = 0; r < runs; ++r) {
    est_v1[r] = oracle->EstimateFrequencies(values, rng)[1];
  }
  const double mean = Mean(est_v1);
  double var = 0.0;
  for (double e : est_v1) var += (e - mean) * (e - mean);
  var /= (runs - 1);

  const double predicted = oracle->EstimatorVariance(n, 0.0);
  EXPECT_NEAR(var, predicted, 0.5 * predicted)
      << ProtocolName(protocol);
  EXPECT_NEAR(mean, 0.0, 5.0 * std::sqrt(predicted / runs));
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, VarianceMatchTest,
                         ::testing::Values(Protocol::kGrr, Protocol::kSue,
                                           Protocol::kOue),
                         [](const ::testing::TestParamInfo<Protocol>& info) {
                           return ProtocolName(info.param);
                         });

// ---------------------------------------------------------------------------
// Structural report checks.
// ---------------------------------------------------------------------------

TEST(SsTest, SubsetSizeAndMembership) {
  Ss ss(20, 1.0);
  Rng rng(2);
  int contains_true = 0;
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    Report r = ss.Randomize(7, rng);
    ASSERT_EQ(static_cast<int>(r.subset.size()), ss.omega());
    for (std::size_t i = 1; i < r.subset.size(); ++i) {
      ASSERT_LT(r.subset[i - 1], r.subset[i]);  // sorted, distinct
    }
    for (int v : r.subset) {
      ASSERT_GE(v, 0);
      ASSERT_LT(v, 20);
    }
    bool has = false;
    for (int v : r.subset) has |= (v == 7);
    contains_true += has;
  }
  EXPECT_NEAR(static_cast<double>(contains_true) / trials, ss.p(), 0.01);
}

TEST(UnaryEncodingTest, OneHot) {
  auto bits = UnaryEncoding::OneHot(2, 5);
  EXPECT_EQ(bits, (std::vector<std::uint8_t>{0, 0, 1, 0, 0}));
  EXPECT_THROW(UnaryEncoding::OneHot(5, 5), InvalidArgumentError);
  EXPECT_THROW(UnaryEncoding::OneHot(-1, 5), InvalidArgumentError);
}

TEST(UnaryEncodingTest, PerturbBitsRates) {
  Rng rng(3);
  std::vector<std::uint8_t> ones(1, 1), zeros(1, 0);
  int kept = 0, flipped = 0;
  const int trials = 50000;
  for (int t = 0; t < trials; ++t) {
    kept += UnaryEncoding::PerturbBits(ones, 0.75, 0.2, rng)[0];
    flipped += UnaryEncoding::PerturbBits(zeros, 0.75, 0.2, rng)[0];
  }
  EXPECT_NEAR(static_cast<double>(kept) / trials, 0.75, 0.01);
  EXPECT_NEAR(static_cast<double>(flipped) / trials, 0.2, 0.01);
}

TEST(OlhTest, SupportCountsHashConsistent) {
  Olh olh(12, 1.0);
  Rng rng(4);
  Report r = olh.Randomize(5, rng);
  std::vector<long long> counts(12, 0);
  olh.AccumulateSupport(r, &counts);
  // Support = preimage size of the reported cell; on average k/g values.
  long long total = 0;
  for (long long c : counts) total += c;
  EXPECT_GE(total, 0);
  EXPECT_LE(total, 12);
}

TEST(OlhTest, CustomGConstructorMatchesTheory) {
  // General local hashing: p' = e^eps/(e^eps + g - 1), q = 1/g.
  const double eps = 2.0;
  const double e = std::exp(eps);
  for (int g : {2, 5, 16, 128}) {
    Olh lh(74, eps, g);
    EXPECT_EQ(lh.g(), g);
    EXPECT_NEAR(lh.p_prime(), e / (e + g - 1), 1e-12);
    EXPECT_NEAR(lh.q(), 1.0 / g, 1e-12);
  }
  EXPECT_THROW(Olh(74, eps, 1), InvalidArgumentError);
}

TEST(OlhTest, DefaultGIsVarianceOptimalAmongSweep) {
  // Var ~ q(1-q)/(p-q)^2, minimized at the continuous g* = e^eps + 1. The
  // default g = round(e^eps) + 1 discretizes g*, so the best integer g can
  // undercut it by a sliver (at eps = 1.5, g = 6 beats g = 5 by 0.02%);
  // assert the default is within 0.1% of every swept alternative.
  const double eps = 1.5;
  Olh optimal(74, eps);
  const double best = optimal.EstimatorVariance(1);
  for (int g : {2, 3, 4, 6, 8, 12, 24, 48}) {
    Olh lh(74, eps, g);
    EXPECT_GE(lh.EstimatorVariance(1), best * (1 - 1e-3)) << "g=" << g;
  }
}

TEST(OlhTest, LargerGRaisesAttackAccuracy) {
  // Fewer values share a hash cell as g grows, so the preimage adversary
  // gains accuracy — the privacy side of the g knob.
  const int k = 74;
  const double eps = 1.0;
  Rng rng(99);
  std::vector<int> values(6000);
  for (int& v : values) v = static_cast<int>(rng.UniformInt(k));
  double prev = 0.0;
  for (int g : {2, 8, 64}) {
    Olh lh(k, eps, g);
    const double acc = attack::EmpiricalAttackAccPercent(lh, values, rng);
    EXPECT_GT(acc, prev * 0.9) << "g=" << g;  // monotone up to MC noise
    prev = acc;
  }
  EXPECT_GT(prev, 2.0);  // g = 64 on k = 74: near-GRR identifiability
}

TEST(GrrTest, HighEpsilonReportsTruth) {
  Grr grr(10, 20.0);
  Rng rng(6);
  for (int t = 0; t < 100; ++t) {
    EXPECT_EQ(grr.Randomize(3, rng).value, 3);
  }
}

TEST(GrrTest, PerturbValidation) {
  Rng rng(7);
  EXPECT_THROW(Grr::Perturb(0, 1, 1.0, rng), InvalidArgumentError);
  EXPECT_THROW(Grr::Perturb(5, 5, 1.0, rng), InvalidArgumentError);
  EXPECT_THROW(Grr::Perturb(0, 5, 0.0, rng), InvalidArgumentError);
}

// The fused client + adversary path must make exactly the draws of the
// two-step path, for every protocol, small and large domains (k = 300 runs
// the UE and OLH preimage scratch well past its first growth) and both a
// tight and a loose budget.
TEST(RandomizeAndPredictTest, RandomizeAndPredictMatchesTwoStep) {
  for (Protocol protocol : AllProtocols()) {
    for (int k : {2, 3, 74, 300}) {
      for (double eps : {0.5, 4.0}) {
        const auto oracle = MakeOracle(protocol, k, eps);
        Rng values(static_cast<std::uint64_t>(k) * 7 + 1);
        Rng fused(99), two_step(99);
        for (int t = 0; t < 10000; ++t) {
          const int v = static_cast<int>(values.UniformInt(k));
          const int got = oracle->RandomizeAndPredict(v, fused);
          const int want =
              oracle->AttackPredict(oracle->Randomize(v, two_step), two_step);
          EXPECT_EQ(got, want) << ProtocolName(protocol) << " k=" << k
                               << " eps=" << eps << " draw " << t;
          if (got != want) break;
        }
        EXPECT_EQ(fused(), two_step())
            << ProtocolName(protocol) << " k=" << k << " eps=" << eps;
      }
    }
  }
}

TEST(RandomizeAndPredictTest, RejectsOutOfDomainValues) {
  Rng rng(8);
  for (Protocol protocol : AllProtocols()) {
    const auto oracle = MakeOracle(protocol, 5, 1.0);
    EXPECT_THROW(oracle->RandomizeAndPredict(-1, rng), InvalidArgumentError)
        << ProtocolName(protocol);
    EXPECT_THROW(oracle->RandomizeAndPredict(5, rng), InvalidArgumentError)
        << ProtocolName(protocol);
  }
}

}  // namespace
}  // namespace ldpr::fo
