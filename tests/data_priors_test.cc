#include "data/priors.h"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "core/check.h"
#include "data/synthetic.h"

namespace ldpr::data {
namespace {

double L1Distance(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::abs(a[i] - b[i]);
  return acc;
}

TEST(PriorsTest, KindNames) {
  EXPECT_STREQ(PriorKindName(PriorKind::kCorrectLaplace), "Correct");
  EXPECT_STREQ(PriorKindName(PriorKind::kIncorrectDirichlet), "Incorrect-DIR");
  EXPECT_STREQ(PriorKindName(PriorKind::kIncorrectZipf), "Incorrect-ZIPF");
  EXPECT_STREQ(PriorKindName(PriorKind::kIncorrectExponential),
               "Incorrect-EXP");
  EXPECT_STREQ(PriorKindName(PriorKind::kUniform), "Uniform");
}

TEST(LaplacePerturbedHistogramTest, IsNormalizedAndNonNegative) {
  Rng rng(1);
  std::vector<double> truth{0.7, 0.2, 0.1};
  auto noisy = LaplacePerturbedHistogram(truth, 1000, 0.01, rng);
  double sum = std::accumulate(noisy.begin(), noisy.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  for (double v : noisy) EXPECT_GE(v, 0.0);
}

TEST(LaplacePerturbedHistogramTest, LargeEpsStaysClose) {
  Rng rng(2);
  std::vector<double> truth{0.6, 0.3, 0.1};
  auto noisy = LaplacePerturbedHistogram(truth, 100000, 10.0, rng);
  EXPECT_LT(L1Distance(truth, noisy), 0.01);
}

TEST(LaplacePerturbedHistogramTest, SmallEpsAddsNoise) {
  Rng rng(3);
  std::vector<double> truth{0.6, 0.3, 0.1};
  double total = 0.0;
  for (int t = 0; t < 50; ++t) {
    total += L1Distance(truth, LaplacePerturbedHistogram(truth, 100, 0.005,
                                                         rng));
  }
  EXPECT_GT(total / 50.0, 0.1);
}

TEST(LaplacePerturbedHistogramTest, Validation) {
  Rng rng(4);
  std::vector<double> truth{1.0};
  EXPECT_THROW(LaplacePerturbedHistogram(truth, 0, 1.0, rng),
               InvalidArgumentError);
  EXPECT_THROW(LaplacePerturbedHistogram(truth, 10, 0.0, rng),
               InvalidArgumentError);
}

class BuildPriorsTest : public ::testing::TestWithParam<PriorKind> {};

TEST_P(BuildPriorsTest, OnePerAttributeNormalized) {
  Dataset ds = NurseryLike(1, 0.05);
  Rng rng(5);
  auto priors = BuildPriors(ds, GetParam(), rng);
  ASSERT_EQ(static_cast<int>(priors.size()), ds.d());
  for (int j = 0; j < ds.d(); ++j) {
    ASSERT_EQ(static_cast<int>(priors[j].size()), ds.domain_size(j));
    double sum = std::accumulate(priors[j].begin(), priors[j].end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    for (double v : priors[j]) EXPECT_GE(v, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, BuildPriorsTest,
    ::testing::Values(PriorKind::kCorrectLaplace, PriorKind::kIncorrectDirichlet,
                      PriorKind::kIncorrectZipf,
                      PriorKind::kIncorrectExponential, PriorKind::kUniform),
    [](const ::testing::TestParamInfo<PriorKind>& info) {
      std::string name = PriorKindName(info.param);
      for (char& c : name) {
        if (c == '-' || c == '+') c = '_';
      }
      return name;
    });

TEST(BuildPriorsTest, CorrectPriorTracksTruth) {
  Dataset ds = AcsEmploymentLike(2, 0.5);
  Rng rng(6);
  auto priors = BuildPriors(ds, PriorKind::kCorrectLaplace, rng);
  auto truth = ds.Marginals();
  // With the paper's eps = 0.1/d at ACS scale, the prior should still be a
  // recognizable (if noisy) copy of the truth.
  double total = 0.0;
  for (int j = 0; j < ds.d(); ++j) total += L1Distance(truth[j], priors[j]);
  EXPECT_LT(total / ds.d(), 0.5);
}

// Pins the "Correct" recipe and its draw order: one
// LaplacePerturbedHistogram(Marginals()[j], n, eps/d) per attribute, in
// attribute order, on the caller's stream. A twin stream fed the same calls
// must reproduce every prior bit for bit and end in the same state.
TEST(BuildPriorsTest, CorrectLaplaceRecipeIsPinned) {
  const Dataset ds = AdultLike(3, 0.05);
  for (int prior_n : {0, 1000000}) {
    SCOPED_TRACE(prior_n);
    Rng rng(41);
    Rng twin(41);
    const auto priors =
        BuildPriors(ds, PriorKind::kCorrectLaplace, rng, 0.1, prior_n);
    const auto truth = ds.Marginals();
    const int n = prior_n > 0 ? prior_n : ds.n();
    ASSERT_EQ(static_cast<int>(priors.size()), ds.d());
    for (int j = 0; j < ds.d(); ++j) {
      EXPECT_EQ(priors[j],
                LaplacePerturbedHistogram(truth[j], n, 0.1 / ds.d(), twin))
          << "attribute " << j;
    }
    EXPECT_EQ(rng(), twin());
  }
}

TEST(BuildPriorsTest, UniformPriorIsExactlyUniform) {
  Dataset ds = NurseryLike(3, 0.05);
  Rng rng(7);
  auto priors = BuildPriors(ds, PriorKind::kUniform, rng);
  for (int j = 0; j < ds.d(); ++j) {
    for (double v : priors[j]) {
      EXPECT_DOUBLE_EQ(v, 1.0 / ds.domain_size(j));
    }
  }
}

TEST(BuildPriorsTest, IncorrectPriorsDifferFromTruth) {
  Dataset ds = AcsEmploymentLike(4, 0.3);
  Rng rng(8);
  auto truth = ds.Marginals();
  for (PriorKind kind : {PriorKind::kIncorrectDirichlet,
                         PriorKind::kIncorrectZipf,
                         PriorKind::kIncorrectExponential}) {
    auto priors = BuildPriors(ds, kind, rng);
    double total = 0.0;
    for (int j = 0; j < ds.d(); ++j) total += L1Distance(truth[j], priors[j]);
    EXPECT_GT(total / ds.d(), 0.05) << PriorKindName(kind);
  }
}

}  // namespace
}  // namespace ldpr::data
