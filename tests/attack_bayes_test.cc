#include "attack/bayes_adversary.h"

#include <cmath>

#include <gtest/gtest.h>

#include "attack/plausible_deniability.h"
#include "core/check.h"
#include "core/sampling.h"
#include "data/priors.h"
#include "data/synthetic.h"
#include "fo/factory.h"
#include "ml/ml_metrics.h"

namespace ldpr::attack {
namespace {

/// Accuracy of an attacker functor over `trials` draws from `value_dist`.
template <typename Predict>
double AttackAcc(const fo::FrequencyOracle& oracle,
                 const CategoricalSampler& value_dist, Predict predict,
                 int trials, Rng& rng) {
  long long correct = 0;
  for (int t = 0; t < trials; ++t) {
    const int v = value_dist.Sample(rng);
    fo::Report r = oracle.Randomize(v, rng);
    if (predict(r, rng) == v) ++correct;
  }
  return static_cast<double>(correct) / trials;
}

class BayesAttackerTest : public ::testing::TestWithParam<fo::Protocol> {};

TEST_P(BayesAttackerTest, UniformPriorMatchesHeuristicAttack) {
  const fo::Protocol protocol = GetParam();
  const int k = 12;
  const double eps = 2.0;
  auto oracle = fo::MakeOracle(protocol, k, eps);
  BayesAttacker bayes(*oracle);
  CategoricalSampler uniform(std::vector<double>(k, 1.0));
  Rng rng(1);

  const int trials = 40000;
  double heuristic = AttackAcc(
      *oracle, uniform,
      [&](const fo::Report& r, Rng& g) { return oracle->AttackPredict(r, g); },
      trials, rng);
  double bayesian = AttackAcc(
      *oracle, uniform,
      [&](const fo::Report& r, Rng& g) { return bayes.Predict(r, g); },
      trials, rng);
  // With a uniform prior, the Bayes rule coincides with the Section 3.2.1
  // heuristics (up to identical tie-breaking randomness).
  EXPECT_NEAR(bayesian, heuristic, 0.02) << fo::ProtocolName(protocol);
}

TEST_P(BayesAttackerTest, InformativePriorDominatesHeuristic) {
  const fo::Protocol protocol = GetParam();
  const int k = 12;
  const double eps = 1.0;  // strong noise: the prior matters
  auto oracle = fo::MakeOracle(protocol, k, eps);
  std::vector<double> skew = ZipfDistribution(k, 2.0);
  BayesAttacker bayes(*oracle, skew);
  CategoricalSampler value_dist(skew);
  Rng rng(2);

  const int trials = 40000;
  double heuristic = AttackAcc(
      *oracle, value_dist,
      [&](const fo::Report& r, Rng& g) { return oracle->AttackPredict(r, g); },
      trials, rng);
  double bayesian = AttackAcc(
      *oracle, value_dist,
      [&](const fo::Report& r, Rng& g) { return bayes.Predict(r, g); },
      trials, rng);
  EXPECT_GE(bayesian, heuristic - 0.01) << fo::ProtocolName(protocol);
  // Under heavy noise the prior should yield a clear improvement.
  EXPECT_GT(bayesian, heuristic + 0.03) << fo::ProtocolName(protocol);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, BayesAttackerTest,
                         ::testing::ValuesIn(fo::AllProtocols()),
                         [](const ::testing::TestParamInfo<fo::Protocol>& i) {
                           return fo::ProtocolName(i.param);
                         });

TEST(BayesAttackerTest, Validation) {
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, 4, 1.0);
  EXPECT_THROW(BayesAttacker(*oracle, {1.0, 2.0}), InvalidArgumentError);
  BayesAttacker bayes(*oracle);
  fo::Report r;
  r.value = 2;
  EXPECT_THROW(bayes.LogLikelihood(r, 4), InvalidArgumentError);
}

TEST(BayesAttackerTest, GrrLikelihoodValues) {
  auto oracle = fo::MakeOracle(fo::Protocol::kGrr, 4, 1.0);
  BayesAttacker bayes(*oracle);
  fo::Report r;
  r.value = 2;
  EXPECT_NEAR(bayes.LogLikelihood(r, 2), std::log(oracle->p()), 1e-12);
  EXPECT_NEAR(bayes.LogLikelihood(r, 0), std::log(oracle->q()), 1e-12);
  Rng rng(3);
  EXPECT_EQ(bayes.Predict(r, rng), 2);
}

// ---------------------------------------------------------------------------
// BayesAifAttacker
// ---------------------------------------------------------------------------

template <typename Protocol>
double BayesAifAcc(const data::Dataset& ds, const Protocol& protocol,
                   Rng& rng) {
  std::vector<multidim::MultidimReport> reports;
  std::vector<int> truth;
  reports.reserve(ds.n());
  for (int i = 0; i < ds.n(); ++i) {
    reports.push_back(protocol.RandomizeUser(ds.Record(i), rng));
    truth.push_back(reports.back().sampled_attribute);
  }
  BayesAifAttacker attacker(protocol, protocol.Estimate(reports));
  return ml::Accuracy(truth, attacker.PredictBatch(reports));
}

TEST(BayesAifTest, BeatsBaselineOnSkewedDataGrr) {
  data::Dataset ds = data::AcsEmploymentLike(10, 0.3);
  multidim::RsFd rsfd(multidim::RsFdVariant::kGrr, ds.domain_sizes(), 8.0);
  Rng rng(4);
  double acc = BayesAifAcc(ds, rsfd, rng);
  EXPECT_GT(acc, 2.0 / ds.d());  // >= 2x the 1/d baseline
}

TEST(BayesAifTest, NearPerfectOnSueZAtHighEpsilon) {
  data::Dataset ds = data::AcsEmploymentLike(11, 0.2);
  multidim::RsFd rsfd(multidim::RsFdVariant::kSueZ, ds.domain_sizes(), 10.0);
  Rng rng(5);
  EXPECT_GT(BayesAifAcc(ds, rsfd, rng), 0.9);
}

TEST(BayesAifTest, NearBaselineOnUniformData) {
  data::Dataset ds = data::NurseryLike(12, 0.3);
  multidim::RsFd rsfd(multidim::RsFdVariant::kGrr, ds.domain_sizes(), 8.0);
  Rng rng(6);
  double acc = BayesAifAcc(ds, rsfd, rng);
  EXPECT_LT(acc, 2.0 / ds.d());
}

TEST(BayesAifTest, RsRfdWithTruePriorsSuppressesTheAttack) {
  data::Dataset ds = data::AcsEmploymentLike(13, 0.3);
  Rng prior_rng(7);
  auto priors = data::BuildPriors(ds, data::PriorKind::kTrueMarginals,
                                  prior_rng);
  multidim::RsRfd rsrfd(multidim::RsRfdVariant::kGrr, ds.domain_sizes(), 8.0,
                        priors);
  multidim::RsFd rsfd(multidim::RsFdVariant::kGrr, ds.domain_sizes(), 8.0);
  Rng rng1(8), rng2(9);
  double with_cm = BayesAifAcc(ds, rsrfd, rng1);
  double without_cm = BayesAifAcc(ds, rsfd, rng2);
  EXPECT_LT(with_cm, without_cm);
  EXPECT_LT(with_cm, 1.6 / ds.d());
}

TEST(BayesAifTest, UeRVariantWorksToo) {
  data::Dataset ds = data::AcsEmploymentLike(14, 0.2);
  multidim::RsFd rsfd(multidim::RsFdVariant::kOueR, ds.domain_sizes(), 8.0);
  Rng rng(10);
  double acc = BayesAifAcc(ds, rsfd, rng);
  EXPECT_GT(acc, 1.3 / ds.d());
}

TEST(BayesAifTest, Validation) {
  multidim::RsFd rsfd(multidim::RsFdVariant::kGrr, {4, 5}, 1.0);
  std::vector<std::vector<double>> wrong_size(1);
  EXPECT_THROW(BayesAifAttacker(rsfd, wrong_size), InvalidArgumentError);
  std::vector<std::vector<double>> marginals{{0.5, 0.3, 0.1, 0.1},
                                             {0.2, 0.2, 0.2, 0.2, 0.2}};
  BayesAifAttacker attacker(rsfd, marginals);
  multidim::MultidimReport bad;
  bad.values = {1};
  EXPECT_THROW(attacker.PredictSampledAttribute(bad), InvalidArgumentError);
}

TEST(BayesAifTest, RejectsMalformedReports) {
  const std::vector<std::vector<double>> marginals{{0.5, 0.3, 0.1, 0.1},
                                                   {0.2, 0.2, 0.2, 0.2, 0.2}};
  multidim::RsFd grr(multidim::RsFdVariant::kGrr, {4, 5}, 1.0);
  BayesAifAttacker value_attacker(grr, marginals);
  multidim::MultidimReport value;
  value.values = {1, 5};  // outside [0, k_1)
  EXPECT_THROW(value_attacker.PredictSampledAttribute(value),
               InvalidArgumentError);

  multidim::RsFd oue(multidim::RsFdVariant::kOueR, {4, 5}, 1.0);
  BayesAifAttacker bits_attacker(oue, marginals);
  multidim::MultidimReport bits;
  bits.bits = {{0, 1, 0, 0}, {0, 0, 1, 0}};  // k_1 - 1 bits
  EXPECT_THROW(bits_attacker.PredictSampledAttribute(bits),
               InvalidArgumentError);
}

}  // namespace
}  // namespace ldpr::attack
