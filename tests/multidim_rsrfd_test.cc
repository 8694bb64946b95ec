#include "multidim/rsrfd.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/check.h"
#include "core/metrics.h"
#include "core/sampling.h"
#include "data/priors.h"
#include "data/synthetic.h"
#include "multidim/variance.h"

namespace ldpr::multidim {
namespace {

std::vector<std::vector<double>> UniformPriors(const std::vector<int>& k) {
  std::vector<std::vector<double>> priors;
  for (int kj : k) priors.emplace_back(kj, 1.0 / kj);
  return priors;
}

RsFdVariant MatchingRsFdVariant(RsRfdVariant v) {
  switch (v) {
    case RsRfdVariant::kGrr:
      return RsFdVariant::kGrr;
    case RsRfdVariant::kSueR:
      return RsFdVariant::kSueR;
    case RsRfdVariant::kOueR:
      return RsFdVariant::kOueR;
  }
  return RsFdVariant::kGrr;
}

std::vector<RsRfdVariant> AllVariants() {
  return {RsRfdVariant::kGrr, RsRfdVariant::kSueR, RsRfdVariant::kOueR};
}

TEST(RsRfdTest, VariantNames) {
  EXPECT_STREQ(RsRfdVariantName(RsRfdVariant::kGrr), "RS+RFD[GRR]");
  EXPECT_STREQ(RsRfdVariantName(RsRfdVariant::kSueR), "RS+RFD[SUE-r]");
  EXPECT_STREQ(RsRfdVariantName(RsRfdVariant::kOueR), "RS+RFD[OUE-r]");
}

TEST(RsRfdTest, Validation) {
  const std::vector<int> k{4, 5};
  EXPECT_THROW(RsRfd(RsRfdVariant::kGrr, {4}, 1.0, UniformPriors({4})),
               InvalidArgumentError);
  EXPECT_THROW(RsRfd(RsRfdVariant::kGrr, k, 0.0, UniformPriors(k)),
               InvalidArgumentError);
  // Wrong prior shape.
  EXPECT_THROW(RsRfd(RsRfdVariant::kGrr, k, 1.0, UniformPriors({4})),
               InvalidArgumentError);
  EXPECT_THROW(RsRfd(RsRfdVariant::kGrr, k, 1.0, UniformPriors({4, 6})),
               InvalidArgumentError);
  // A one-value domain has no GRR q (division by k - 1 = 0).
  EXPECT_THROW(RsRfd(RsRfdVariant::kGrr, {1, 5}, 1.0, UniformPriors({1, 5})),
               InvalidArgumentError);
}

TEST(RsRfdTest, EstimateRejectsMalformedReports) {
  const std::vector<int> k{4, 5};
  Rng rng(8);
  RsRfd grr(RsRfdVariant::kGrr, k, 1.0, UniformPriors(k));
  MultidimReport value = grr.RandomizeUser({1, 2}, rng);
  value.values[1] = 5;  // outside [0, k_1)
  EXPECT_THROW(grr.Estimate({value}), InvalidArgumentError);
  value.values[1] = -1;
  EXPECT_THROW(grr.Estimate({value}), InvalidArgumentError);

  RsRfd oue(RsRfdVariant::kOueR, k, 1.0, UniformPriors(k));
  MultidimReport bits = oue.RandomizeUser({1, 2}, rng);
  bits.bits[1].pop_back();  // k_1 - 1 bits
  EXPECT_THROW(oue.Estimate({bits}), InvalidArgumentError);
}

TEST(RsRfdTest, PointMassPriorForcesFakeValue) {
  // With a point-mass prior on value 0, every fake (non-sampled) value must
  // be 0, regardless of the user's true record.
  const std::vector<int> k{4, 4};
  std::vector<std::vector<double>> priors{{1.0, 0.0, 0.0, 0.0},
                                          {1.0, 0.0, 0.0, 0.0}};
  RsRfd rsrfd(RsRfdVariant::kGrr, k, 1.0, priors);
  Rng rng(1);
  for (int t = 0; t < 500; ++t) {
    MultidimReport r = rsrfd.RandomizeUser({3, 3}, rng);
    const int fake_attr = 1 - r.sampled_attribute;
    EXPECT_EQ(r.values[fake_attr], 0);
  }
}

TEST(RsRfdTest, FakeValuesMatchPriorDistribution) {
  const std::vector<int> k{5, 5};
  std::vector<std::vector<double>> priors{{0.6, 0.1, 0.1, 0.1, 0.1},
                                          {0.1, 0.1, 0.1, 0.1, 0.6}};
  RsRfd rsrfd(RsRfdVariant::kGrr, k, 1.0, priors);
  Rng rng(2);
  std::vector<long long> fake_counts(5, 0);
  long long fakes = 0;
  for (int t = 0; t < 40000; ++t) {
    MultidimReport r = rsrfd.RandomizeUser({2, 2}, rng);
    if (r.sampled_attribute == 1) {
      ++fake_counts[r.values[0]];  // attribute 0 holds fake data
      ++fakes;
    }
  }
  ASSERT_GT(fakes, 10000);
  EXPECT_NEAR(static_cast<double>(fake_counts[0]) / fakes, 0.6, 0.02);
  EXPECT_NEAR(static_cast<double>(fake_counts[2]) / fakes, 0.1, 0.02);
}

class RsRfdVariantTest : public ::testing::TestWithParam<RsRfdVariant> {};

TEST_P(RsRfdVariantTest, EstimatorUnbiasedWithSkewedPriors) {
  const RsRfdVariant variant = GetParam();
  const std::vector<int> k{6, 4, 9};
  const int n = 120000;
  Rng rng(300 + static_cast<int>(variant));

  // Skewed truth and *different* skewed priors (priors need not be correct
  // for unbiasedness — the estimator subtracts whatever prior is used).
  std::vector<CategoricalSampler> samplers;
  std::vector<std::vector<double>> priors;
  for (int kj : k) {
    samplers.emplace_back(ZipfDistribution(kj, 1.3));
    auto prior = ZipfDistribution(kj, 0.7);
    std::reverse(prior.begin(), prior.end());
    priors.push_back(prior);
  }

  std::vector<std::vector<int>> records(n, std::vector<int>(3));
  std::vector<std::vector<long long>> counts(3);
  for (int j = 0; j < 3; ++j) counts[j].assign(k[j], 0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < 3; ++j) {
      records[i][j] = samplers[j].Sample(rng);
      ++counts[j][records[i][j]];
    }
  }

  RsRfd rsrfd(variant, k, 1.0, priors);
  std::vector<MultidimReport> reports;
  reports.reserve(n);
  for (int i = 0; i < n; ++i) {
    reports.push_back(rsrfd.RandomizeUser(records[i], rng));
  }
  auto est = rsrfd.Estimate(reports);

  for (int j = 0; j < 3; ++j) {
    for (int v = 0; v < k[j]; ++v) {
      const double truth = static_cast<double>(counts[j][v]) / n;
      const double sd =
          std::sqrt(rsrfd.EstimatorVariance(j, v, n, truth));
      EXPECT_NEAR(est[j][v], truth, 5.0 * sd + 1e-6)
          << RsRfdVariantName(variant) << " j=" << j << " v=" << v;
    }
  }
}

TEST_P(RsRfdVariantTest, UniformPriorReducesToRsFdEstimator) {
  // With uniform priors, RS+RFD is mathematically identical to RS+FD: same
  // client distribution and the estimators coincide. Feed the *same* support
  // counts through both server sides and compare.
  const RsRfdVariant variant = GetParam();
  const std::vector<int> k{5, 7};
  const double eps = 1.0;
  RsRfd rsrfd(variant, k, eps, UniformPriors(k));
  RsFd rsfd(MatchingRsFdVariant(variant), k, eps);

  Rng rng(400 + static_cast<int>(variant));
  std::vector<MultidimReport> reports;
  for (int i = 0; i < 3000; ++i) {
    reports.push_back(rsrfd.RandomizeUser({1, 2}, rng));
  }
  auto est_rfd = rsrfd.Estimate(reports);
  auto est_fd = rsfd.Estimate(reports);
  for (int j = 0; j < 2; ++j) {
    for (int v = 0; v < k[j]; ++v) {
      EXPECT_NEAR(est_rfd[j][v], est_fd[j][v], 1e-9)
          << RsRfdVariantName(variant);
    }
  }
}

TEST_P(RsRfdVariantTest, VarianceFormulaMatchesEmpirical) {
  const RsRfdVariant variant = GetParam();
  const std::vector<int> k{5, 7};
  std::vector<std::vector<double>> priors{ZipfDistribution(5, 1.0),
                                          ZipfDistribution(7, 1.0)};
  RsRfd rsrfd(variant, k, 1.0, priors);
  Rng rng(500 + static_cast<int>(variant));

  const int n = 4000;
  const int runs = 250;
  std::vector<double> estimates(runs);
  for (int r = 0; r < runs; ++r) {
    std::vector<MultidimReport> reports;
    reports.reserve(n);
    for (int i = 0; i < n; ++i) {
      reports.push_back(rsrfd.RandomizeUser({0, 0}, rng));
    }
    estimates[r] = rsrfd.Estimate(reports)[0][1];
  }
  const double mean = Mean(estimates);
  double var = 0.0;
  for (double e : estimates) var += (e - mean) * (e - mean);
  var /= (runs - 1);
  const double predicted = rsrfd.EstimatorVariance(0, 1, n, 0.0);
  EXPECT_NEAR(var, predicted, 0.5 * predicted) << RsRfdVariantName(variant);
  EXPECT_NEAR(mean, 0.0, 5.0 * std::sqrt(predicted / runs));
}

INSTANTIATE_TEST_SUITE_P(AllVariants, RsRfdVariantTest,
                         ::testing::ValuesIn(AllVariants()),
                         [](const ::testing::TestParamInfo<RsRfdVariant>& i) {
                           switch (i.param) {
                             case RsRfdVariant::kGrr:
                               return "GRR";
                             case RsRfdVariant::kSueR:
                               return "SUEr";
                             case RsRfdVariant::kOueR:
                               return "OUEr";
                           }
                           return "unknown";
                         });

TEST(RsRfdUtilityTest, CorrectPriorsBeatUniformFakes) {
  // Section 5.2.2's headline: with near-correct priors, RS+RFD's MSE_avg is
  // below RS+FD's, because fake data contributes signal.
  data::Dataset ds = data::AcsEmploymentLike(11, 0.5);
  Rng rng(12);
  auto priors = data::BuildPriors(ds, data::PriorKind::kCorrectLaplace, rng,
                                  /*total_central_eps=*/0.1,
                                  data::kAcsEmploymentN);

  RsRfd rsrfd(RsRfdVariant::kGrr, ds.domain_sizes(), std::log(2.0), priors);
  RsFd rsfd(RsFdVariant::kGrr, ds.domain_sizes(), std::log(2.0));
  auto truth = ds.Marginals();
  // The advantage is in expectation; average several collection rounds so a
  // single noisy draw cannot flip the comparison.
  double rfd_mse = 0.0, fd_mse = 0.0;
  for (int run = 0; run < 5; ++run) {
    std::vector<MultidimReport> rfd_reports, fd_reports;
    for (int i = 0; i < ds.n(); ++i) {
      rfd_reports.push_back(rsrfd.RandomizeUser(ds.Record(i), rng));
      fd_reports.push_back(rsfd.RandomizeUser(ds.Record(i), rng));
    }
    rfd_mse += MseAvg(truth, rsrfd.Estimate(rfd_reports));
    fd_mse += MseAvg(truth, rsfd.Estimate(fd_reports));
  }
  EXPECT_LT(rfd_mse, fd_mse);
}

TEST(RsRfdUtilityTest, ApproxMseAvgMatchesVarianceAverage) {
  const std::vector<int> k{4, 8};
  std::vector<std::vector<double>> priors{ZipfDistribution(4, 1.0),
                                          ZipfDistribution(8, 1.0)};
  RsRfd rsrfd(RsRfdVariant::kOueR, k, 1.0, priors);
  double manual = 0.0;
  for (int j = 0; j < 2; ++j) {
    double a = 0.0;
    for (int v = 0; v < k[j]; ++v) {
      a += rsrfd.EstimatorVariance(j, v, 1000, 0.0);
    }
    manual += a / k[j];
  }
  manual /= 2.0;
  EXPECT_NEAR(RsRfdApproxMseAvg(rsrfd, 1000), manual, 1e-12);
}

TEST(RsRfdVarianceTest, EstimatorVarianceValidation) {
  const std::vector<int> k{4, 8};
  RsRfd rsrfd(RsRfdVariant::kGrr, k, 1.0, UniformPriors(k));
  EXPECT_THROW(rsrfd.EstimatorVariance(2, 0, 100, 0.0), InvalidArgumentError);
  EXPECT_THROW(rsrfd.EstimatorVariance(0, 4, 100, 0.0), InvalidArgumentError);
  EXPECT_THROW(rsrfd.EstimatorVariance(0, 0, 0, 0.0), InvalidArgumentError);
}

}  // namespace
}  // namespace ldpr::multidim
